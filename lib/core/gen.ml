open Term

type env = {
  ints : Ident.t list;    (* in-scope integer variables *)
  arrays : Ident.t list;  (* in-scope array references *)
  procs : (Ident.t * int) list;  (* in-scope helper procedures and their arity *)
  ce : Ident.t;
  budget : int ref;
}

let pick rng xs = List.nth xs (Random.State.int rng (List.length xs))

let int_value rng env =
  if env.ints <> [] && Random.State.bool rng then var (pick rng env.ints)
  else int (Random.State.int rng 21 - 10)

let spend env n = env.budget := !(env.budget) - n

(* Generate an application that eventually delivers one integer to [k]. *)
let rec gen_app rng env (k : value -> app) : app =
  if !(env.budget) <= 0 then k (int_value rng env)
  else begin
    spend env 1;
    match Random.State.int rng 100 with
    | n when n < 30 -> gen_arith rng env k
    | n when n < 42 -> gen_compare rng env k
    | n when n < 52 -> gen_case rng env k
    | n when n < 62 -> gen_redex rng env k
    | n when n < 72 -> gen_helper rng env k
    | n when n < 80 -> gen_loop rng env k
    | n when n < 88 -> gen_array rng env k
    | n when n < 92 -> app (var env.ce) [ str "gen-raise" ]
    | n when n < 96 -> gen_call rng env k
    | _ -> k (int_value rng env)
  end

and gen_arith rng env k =
  let op = pick rng [ "+"; "-"; "*"; "/"; "%" ] in
  let a = int_value rng env and b = int_value rng env in
  let t = Ident.fresh "t" in
  app (prim op)
    [ a; b; Var env.ce; abs [ t ] (gen_app rng { env with ints = t :: env.ints } k) ]

and gen_compare rng env k =
  let op = pick rng [ "<"; "<="; ">"; ">=" ] in
  let a = int_value rng env and b = int_value rng env in
  (* both branches continue; the meta-continuation is reified to avoid
     duplicating the rest of the program *)
  let kj = Ident.fresh ~sort:Cont "j" in
  let x = Ident.fresh "x" in
  let continue_ v = app (Var kj) [ v ] in
  app
    (abs [ kj ]
       (app (prim op)
          [
            a;
            b;
            abs [] (gen_app rng env continue_);
            abs [] (gen_app rng env continue_);
          ]))
    [ abs [ x ] (k (var x)) ]

and gen_case rng env k =
  let scrutinee = int_value rng env in
  let tags =
    List.sort_uniq compare
      (List.init (1 + Random.State.int rng 3) (fun _ -> Random.State.int rng 5))
  in
  let kj = Ident.fresh ~sort:Cont "j" in
  let x = Ident.fresh "x" in
  let continue_ v = app (Var kj) [ v ] in
  let branches = List.map (fun _ -> abs [] (gen_app rng env continue_)) tags in
  let default = abs [] (gen_app rng env continue_) in
  app
    (abs [ kj ]
       (app (prim "==") ((scrutinee :: List.map int tags) @ branches @ [ default ])))
    [ abs [ x ] (k (var x)) ]

and gen_redex rng env k =
  let n = 1 + Random.State.int rng 2 in
  let params = List.init n (fun _ -> Ident.fresh "r") in
  let args = List.map (fun _ -> int_value rng env) params in
  app
    (abs params (gen_app rng { env with ints = params @ env.ints } k))
    args

(* Bind a helper procedure and use it at one or more call sites: the
   expansion pass's bread and butter. *)
and gen_helper rng env k =
  let f = Ident.fresh "f" in
  let x = Ident.fresh "x" in
  let fce = Ident.fresh ~sort:Cont "ce" in
  let fcc = Ident.fresh ~sort:Cont "cc" in
  spend env 2;
  let helper_body =
    gen_app rng
      {
        ints = [ x ];
        arrays = [];
        procs = [];
        ce = fce;
        budget = ref (min 4 (max 0 !(env.budget)));
      }
      (fun v -> app (Var fcc) [ v ])
  in
  let helper = abs [ x; fce; fcc ] helper_body in
  app
    (abs [ f ]
       (gen_app rng { env with procs = (f, 1) :: env.procs } k))
    [ helper ]

and gen_call rng env k =
  match env.procs with
  | [] -> gen_arith rng env k
  | procs ->
    let f, arity = pick rng procs in
    let args = List.init arity (fun _ -> int_value rng env) in
    let t = Ident.fresh "t" in
    app (Var f)
      (args
      @ [ Var env.ce; abs [ t ] (gen_app rng { env with ints = t :: env.ints } k) ])

(* A bounded counting loop via the canonical Y shape. *)
and gen_loop rng env k =
  let iterations = 1 + Random.State.int rng 6 in
  let c0 = Ident.fresh ~sort:Cont "c0" in
  let loop = Ident.fresh ~sort:Cont "loop" in
  let c = Ident.fresh ~sort:Cont "c" in
  let i = Ident.fresh "i" in
  let acc = Ident.fresh "acc" in
  let i' = Ident.fresh "i" in
  let acc' = Ident.fresh "acc" in
  spend env 2;
  let body_env =
    { env with ints = i :: acc :: env.ints; budget = ref (min 3 (max 0 !(env.budget))) }
  in
  let step =
    gen_app rng body_env (fun v ->
        app (prim "+")
          [
            v;
            var acc;
            Var env.ce;
            abs [ acc' ]
              (app (prim "-")
                 [ var i; int 1; Var env.ce; abs [ i' ] (app (Var loop) [ var i'; var acc' ]) ]);
          ])
  in
  let head =
    abs [ i; acc ]
      (app (prim "<=")
         [ var i; int 0; abs [] (k (var acc)); abs [] step ])
  in
  let entry = abs [] (app (Var loop) [ int iterations; int 0 ]) in
  app (prim "Y") [ abs [ c0; loop; c ] (app (Var c) [ entry; head ]) ]

and gen_array rng env k =
  match env.arrays with
  | arr :: _ when Random.State.bool rng ->
    (* read or write a slot of an existing 4-element array *)
    let ix = int (Random.State.int rng 4) in
    if Random.State.bool rng then begin
      let t = Ident.fresh "t" in
      app (prim "[]")
        [ var arr; ix; abs [ t ] (gen_app rng { env with ints = t :: env.ints } k) ]
    end
    else begin
      let u = Ident.fresh "u" in
      app (prim "[:=]")
        [ var arr; ix; int_value rng env; abs [ u ] (gen_app rng env k) ]
    end
  | _ ->
    let a = Ident.fresh "a" in
    app (prim "new")
      [
        int 4;
        int_value rng env;
        abs [ a ] (gen_app rng { env with arrays = a :: env.arrays } k);
      ]

let proc2 rng ~size =
  let a = Ident.fresh "a" in
  let b = Ident.fresh "b" in
  let ce = Ident.fresh ~sort:Cont "ce" in
  let cc = Ident.fresh ~sort:Cont "cc" in
  let env = { ints = [ a; b ]; arrays = []; procs = []; ce; budget = ref size } in
  abs [ a; b; ce; cc ] (gen_app rng env (fun v -> app (Var cc) [ v ]))
