let register_metrics () = ()
