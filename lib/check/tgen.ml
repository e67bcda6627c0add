open Tml_core
open Term

(* ------------------------------------------------------------------ *)
(* Full-program generator                                              *)
(* ------------------------------------------------------------------ *)

type case = {
  seed : int;
  proc : Term.value;
  a : int;
  b : int;
}

type env = {
  ints : Ident.t list;
  bools : Ident.t list;
  reals : Ident.t list;
  arrays : Ident.t list;   (* mutable arrays, allocated with 4 slots *)
  vectors : Ident.t list;  (* immutable vectors, 3 slots *)
  procs : (Ident.t * int) list;
  ce : Ident.t;
  budget : int ref;
}

let pick rng xs = List.nth xs (Random.State.int rng (List.length xs))
let spend env n = env.budget := !(env.budget) - n

let int_value rng env =
  if env.ints <> [] && Random.State.bool rng then var (pick rng env.ints)
  else int (Random.State.int rng 21 - 10)

let bool_value rng env =
  if env.bools <> [] && Random.State.bool rng then var (pick rng env.bools)
  else bool_ (Random.State.bool rng)

let real_value rng env =
  if env.reals <> [] && Random.State.bool rng then var (pick rng env.reals)
  else real (float_of_int (Random.State.int rng 21 - 10) *. 0.5)

(* Reify the meta-continuation [k] as a join point so branching constructs
   do not duplicate the rest of the program:
   ((λ(kj) <body using kj>) (λ(x) k x)). *)
let with_join ?(sort = Ident.Value) k mkbody =
  let kj = Ident.fresh ~sort:Cont "j" in
  let x = Ident.fresh ~sort "x" in
  app (abs [ kj ] (mkbody kj)) [ abs [ x ] (k (var x)) ]

(* Generate an application that eventually delivers one integer to [k]. *)
let rec gen_app rng env (k : value -> app) : app =
  if !(env.budget) <= 0 then k (int_value rng env)
  else begin
    spend env 1;
    match Random.State.int rng 100 with
    | n when n < 20 -> gen_arith rng env k
    | n when n < 27 -> gen_bitop rng env k
    | n when n < 36 -> gen_compare rng env k
    | n when n < 43 -> gen_case rng env k
    | n when n < 49 -> gen_redex rng env k
    | n when n < 55 -> gen_helper rng env k
    | n when n < 60 -> gen_call rng env k
    | n when n < 66 -> gen_loop rng env k
    | n when n < 73 -> gen_array rng env k
    | n when n < 78 -> gen_vector rng env k
    | n when n < 83 -> gen_real rng env k
    | n when n < 88 -> gen_bool rng env k
    | n when n < 91 -> gen_print rng env k
    | n when n < 94 -> gen_handler rng env k
    | n when n < 96 -> app (prim "raise") [ int (Random.State.int rng 10) ]
    | n when n < 98 -> app (var env.ce) [ str "gen-raise" ]
    | _ -> k (int_value rng env)
  end

and gen_arith rng env k =
  let op = pick rng [ "+"; "-"; "*"; "/"; "%" ] in
  let a = int_value rng env and b = int_value rng env in
  let t = Ident.fresh "t" in
  app (prim op)
    [ a; b; Var env.ce; abs [ t ] (gen_app rng { env with ints = t :: env.ints } k) ]

and gen_bitop rng env k =
  let t = Ident.fresh "t" in
  let rest = abs [ t ] (gen_app rng { env with ints = t :: env.ints } k) in
  match Random.State.int rng 4 with
  | 0 -> app (prim "bnot") [ int_value rng env; rest ]
  | 1 ->
    (* shift counts are literal and small: large or negative dynamic
       counts are host-dependent, not TML-defined *)
    let op = pick rng [ "bshl"; "bshr" ] in
    app (prim op) [ int_value rng env; int (Random.State.int rng 8); rest ]
  | _ ->
    let op = pick rng [ "band"; "bor"; "bxor" ] in
    app (prim op) [ int_value rng env; int_value rng env; rest ]

and gen_compare rng env k =
  let op = pick rng [ "<"; "<="; ">"; ">=" ] in
  let a = int_value rng env and b = int_value rng env in
  with_join k (fun kj ->
      let continue_ v = app (Var kj) [ v ] in
      app (prim op)
        [ a; b; abs [] (gen_app rng env continue_); abs [] (gen_app rng env continue_) ])

and gen_case rng env k =
  let scrutinee = int_value rng env in
  let tags =
    List.sort_uniq compare
      (List.init (1 + Random.State.int rng 3) (fun _ -> Random.State.int rng 5))
  in
  with_join k (fun kj ->
      let continue_ v = app (Var kj) [ v ] in
      let branches = List.map (fun _ -> abs [] (gen_app rng env continue_)) tags in
      let default = abs [] (gen_app rng env continue_) in
      app (prim "==") ((scrutinee :: List.map int tags) @ branches @ [ default ]))

and gen_redex rng env k =
  let n = 1 + Random.State.int rng 2 in
  let params = List.init n (fun _ -> Ident.fresh "r") in
  let args = List.map (fun _ -> int_value rng env) params in
  app (abs params (gen_app rng { env with ints = params @ env.ints } k)) args

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
        bools = [];
        reals = [];
        arrays = [];
        vectors = [];
        procs = [];
        ce = fce;
        budget = ref (min 4 (max 0 !(env.budget)));
      }
      (fun v -> app (Var fcc) [ v ])
  in
  let helper = abs [ x; fce; fcc ] helper_body in
  app (abs [ f ] (gen_app rng { env with procs = (f, 1) :: env.procs } k)) [ helper ]

and gen_call rng env k =
  match env.procs with
  | [] -> gen_arith rng env k
  | procs ->
    let f, arity = pick rng procs in
    let args = List.init arity (fun _ -> int_value rng env) in
    let t = Ident.fresh "t" in
    app (Var f)
      (args @ [ Var env.ce; abs [ t ] (gen_app rng { env with ints = t :: env.ints } k) ])

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
    abs [ i; acc ] (app (prim "<=") [ var i; int 0; abs [] (k (var acc)); abs [] step ])
  in
  let entry = abs [] (app (Var loop) [ int iterations; int 0 ]) in
  app (prim "Y") [ abs [ c0; loop; c ] (app (Var c) [ entry; head ]) ]

and gen_array rng env k =
  match env.arrays with
  | arr :: _ when Random.State.bool rng ->
    (* mostly in-bounds accesses to the 4-slot array; occasionally out of
       bounds, which must fault identically everywhere *)
    let ix = int (Random.State.int rng (if Random.State.int rng 8 = 0 then 6 else 4)) in
    if Random.State.bool rng then begin
      let t = Ident.fresh "t" in
      app (prim "[]")
        [ var arr; ix; abs [ t ] (gen_app rng { env with ints = t :: env.ints } k) ]
    end
    else begin
      let u = Ident.fresh "u" in
      app (prim "[:=]") [ var arr; ix; int_value rng env; abs [ u ] (gen_app rng env k) ]
    end
  | _ ->
    let a = Ident.fresh "a" in
    app (prim "new")
      [
        int 4;
        int_value rng env;
        abs [ a ] (gen_app rng { env with arrays = a :: env.arrays } k);
      ]

and gen_vector rng env k =
  match env.vectors with
  | vec :: _ when Random.State.bool rng ->
    if Random.State.bool rng then begin
      let t = Ident.fresh "t" in
      let ix = int (Random.State.int rng (if Random.State.int rng 8 = 0 then 5 else 3)) in
      app (prim "[]")
        [ var vec; ix; abs [ t ] (gen_app rng { env with ints = t :: env.ints } k) ]
    end
    else begin
      let n = Ident.fresh "n" in
      app (prim "size") [ var vec; abs [ n ] (gen_app rng { env with ints = n :: env.ints } k) ]
    end
  | _ ->
    let v = Ident.fresh "v" in
    app (prim "vector")
      [
        int_value rng env;
        int_value rng env;
        int_value rng env;
        abs [ v ] (gen_app rng { env with vectors = v :: env.vectors } k);
      ]

(* A chain of IEEE real arithmetic, re-entering the integer world through a
   real comparison (bit-exact agreement is required of every engine). *)
and gen_real rng env k =
  match env.reals with
  | r1 :: _ when Random.State.bool rng ->
    if Random.State.int rng 3 = 0 then begin
      let t = Ident.fresh "fr" in
      let op = pick rng [ "fneg"; "sqrt" ] in
      app (prim op)
        [ var r1; abs [ t ] (gen_app rng { env with reals = t :: env.reals } k) ]
    end
    else begin
      let op = pick rng [ "f<"; "f<="; "f>"; "f>=" ] in
      with_join k (fun kj ->
          let continue_ v = app (Var kj) [ v ] in
          app (prim op)
            [
              var r1;
              real_value rng env;
              abs [] (gen_app rng env continue_);
              abs [] (gen_app rng env continue_);
            ])
    end
  | _ ->
    if env.reals <> [] && Random.State.bool rng then begin
      let op = pick rng [ "f+"; "f-"; "f*"; "f/" ] in
      let t = Ident.fresh "fr" in
      app (prim op)
        [
          real_value rng env;
          real_value rng env;
          abs [ t ] (gen_app rng { env with reals = t :: env.reals } k);
        ]
    end
    else begin
      let t = Ident.fresh "fr" in
      app (prim "int2real")
        [ int_value rng env; abs [ t ] (gen_app rng { env with reals = t :: env.reals } k) ]
    end

(* Enter the boolean world from a comparison, combine with and/or/not, and
   branch back out on the boolean. *)
and gen_bool rng env k =
  match env.bools with
  | _ :: _ when Random.State.bool rng ->
    if Random.State.int rng 3 = 0 then
      with_join k (fun kj ->
          let continue_ v = app (Var kj) [ v ] in
          app (prim "==")
            [
              bool_value rng env;
              bool_ true;
              abs [] (gen_app rng env continue_);
              abs [] (gen_app rng env continue_);
            ])
    else begin
      let t = Ident.fresh "bv" in
      let rest = abs [ t ] (gen_app rng { env with bools = t :: env.bools } k) in
      if Random.State.int rng 3 = 0 then app (prim "not") [ bool_value rng env; rest ]
      else
        app
          (prim (pick rng [ "and"; "or" ]))
          [ bool_value rng env; bool_value rng env; rest ]
    end
  | _ ->
    (* materialize a boolean from an integer comparison *)
    let op = pick rng [ "<"; "<=" ] in
    let kj = Ident.fresh ~sort:Cont "j" in
    let bt = Ident.fresh "bv" in
    app
      (abs [ kj ]
         (app (prim op)
            [
              int_value rng env;
              int_value rng env;
              abs [] (app (Var kj) [ bool_ true ]);
              abs [] (app (Var kj) [ bool_ false ]);
            ]))
      [ abs [ bt ] (gen_app rng { env with bools = bt :: env.bools } k) ]

(* Observable output through the host interface. *)
and gen_print rng env k =
  let u = Ident.fresh "u" in
  app (prim "ccall")
    [ str "print_int"; int_value rng env; Var env.ce; abs [ u ] (gen_app rng env k) ]

(* A handler region: push a handler, run a protected computation that pops
   it on the normal path; a [raise] (or an index error) inside transfers to
   the handler instead.  Both paths join on [kj]. *)
and gen_handler rng env k =
  spend env 2;
  with_join k (fun kj ->
      let continue_ v = app (Var kj) [ v ] in
      let hx = Ident.fresh "hx" in
      let handler =
        abs [ hx ]
          (gen_app rng
             { env with ints = hx :: env.ints; budget = ref (min 3 (max 0 !(env.budget))) }
             continue_)
      in
      let protected =
        abs []
          (gen_app rng
             { env with budget = ref (min 5 (max 0 !(env.budget))) }
             (fun v -> app (prim "popHandler") [ abs [] (continue_ v) ]))
      in
      app (prim "pushHandler") [ handler; protected ])

let proc_gen rng ~size =
  let a = Ident.fresh "a" in
  let b = Ident.fresh "b" in
  let ce = Ident.fresh ~sort:Cont "ce" in
  let cc = Ident.fresh ~sort:Cont "cc" in
  let env =
    {
      ints = [ a; b ];
      bools = [];
      reals = [];
      arrays = [];
      vectors = [];
      procs = [];
      ce;
      budget = ref size;
    }
  in
  abs [ a; b; ce; cc ] (gen_app rng env (fun v -> app (Var cc) [ v ]))

let case_of_seed ?(min_size = 5) ?(max_size = 45) seed =
  let rng = Random.State.make [| 0x7431; seed |] in
  let size = min_size + Random.State.int rng (max 1 (max_size - min_size + 1)) in
  let proc = proc_gen rng ~size in
  let a = Random.State.int rng 41 - 20 in
  let b = Random.State.int rng 41 - 20 in
  { seed; proc; a; b }

(* ------------------------------------------------------------------ *)
(* Query-pipeline generator                                            *)
(* ------------------------------------------------------------------ *)

type query_case = {
  qseed : int;
  rows : int list list;
  qproc : Term.value;
}

type qenv = {
  rels : (Ident.t * int) list;  (* relation variables and their tuple width *)
  qints : Ident.t list;
  qce : Ident.t;
  qbudget : int ref;
}

let qint rng env =
  if env.qints <> [] && Random.State.bool rng then var (pick rng env.qints)
  else int (Random.State.int rng 21)

(* A row predicate proc(x pce pcc): field-literal or field-field
   comparisons; occasionally constant or raising. *)
let gen_pred rng ~width =
  let x = Ident.fresh "row" in
  let pce = Ident.fresh ~sort:Cont "pce" in
  let pcc = Ident.fresh ~sort:Cont "pcc" in
  let f1 = Random.State.int rng width in
  let lit_ = int (Random.State.int rng 21) in
  let op = pick rng [ "<"; "<="; ">"; ">=" ] in
  let body =
    match Random.State.int rng 10 with
    | 0 -> app (Var pcc) [ bool_ true ]
    | 1 -> app (Var pcc) [ bool_ false ]
    | 2 ->
      (* a raising predicate: errors must propagate identically *)
      let t = Ident.fresh "t" in
      app (prim "[]")
        [
          var x;
          int f1;
          abs [ t ]
            (app (prim ">")
               [
                 var t;
                 int 18;
                 abs [] (app (Var pce) [ str "pred-raise" ]);
                 abs [] (app (Var pcc) [ bool_ true ]);
               ]);
        ]
    | n when n < 7 || width < 2 ->
      let t = Ident.fresh "t" in
      app (prim "[]")
        [
          var x;
          int f1;
          abs [ t ]
            (app (prim op)
               [
                 var t;
                 lit_;
                 abs [] (app (Var pcc) [ bool_ true ]);
                 abs [] (app (Var pcc) [ bool_ false ]);
               ]);
        ]
    | _ ->
      let f2 = Random.State.int rng width in
      let t1 = Ident.fresh "t" in
      let t2 = Ident.fresh "t" in
      app (prim "[]")
        [
          var x;
          int f1;
          abs [ t1 ]
            (app (prim "[]")
               [
                 var x;
                 int f2;
                 abs [ t2 ]
                   (app (prim op)
                      [
                        var t1;
                        var t2;
                        abs [] (app (Var pcc) [ bool_ true ]);
                        abs [] (app (Var pcc) [ bool_ false ]);
                      ]);
               ]);
        ]
  in
  abs [ x; pce; pcc ] body

(* A point predicate proc(x pce pcc) testing x.[f] == key, the shape
   q.index-select turns into a probe; [key] is a literal or a variable
   bound outside the predicate. *)
let gen_point_pred rng ~width ~key =
  let x = Ident.fresh "row" in
  let pce = Ident.fresh ~sort:Cont "pce" in
  let pcc = Ident.fresh ~sort:Cont "pcc" in
  let t = Ident.fresh "t" in
  let f = if Random.State.bool rng then 0 else Random.State.int rng width in
  abs [ x; pce; pcc ]
    (app (prim "[]")
       [
         var x;
         int f;
         abs [ t ]
           (app (prim "==")
              [
                var t;
                key;
                abs [] (app (Var pcc) [ bool_ true ]);
                abs [] (app (Var pcc) [ bool_ false ]);
              ]);
       ])

(* A join predicate proc(x y pce pcc) comparing one field of each side. *)
let gen_join_pred rng ~w1 ~w2 =
  let x = Ident.fresh "lrow" in
  let y = Ident.fresh "rrow" in
  let pce = Ident.fresh ~sort:Cont "pce" in
  let pcc = Ident.fresh ~sort:Cont "pcc" in
  let t1 = Ident.fresh "t" in
  let t2 = Ident.fresh "t" in
  let op = pick rng [ "<"; "<="; ">="; ">" ] in
  abs [ x; y; pce; pcc ]
    (app (prim "[]")
       [
         var x;
         int (Random.State.int rng w1);
         abs [ t1 ]
           (app (prim "[]")
              [
                var y;
                int (Random.State.int rng w2);
                abs [ t2 ]
                  (app (prim op)
                     [
                       var t1;
                       var t2;
                       abs [] (app (Var pcc) [ bool_ true ]);
                       abs [] (app (Var pcc) [ bool_ false ]);
                     ]);
              ]);
       ])

(* A field extractor proc(x pce pcc) used by sum/minagg/maxagg. *)
let gen_field_fn rng ~width =
  let x = Ident.fresh "row" in
  let pce = Ident.fresh ~sort:Cont "pce" in
  let pcc = Ident.fresh ~sort:Cont "pcc" in
  let t = Ident.fresh "t" in
  abs [ x; pce; pcc ]
    (app (prim "[]") [ var x; int (Random.State.int rng width); abs [ t ] (app (Var pcc) [ var t ]) ])

(* A projection target proc(x pce pcc) building a 1-tuple of one field. *)
let gen_project_fn rng ~width =
  let x = Ident.fresh "row" in
  let pce = Ident.fresh ~sort:Cont "pce" in
  let pcc = Ident.fresh ~sort:Cont "pcc" in
  let t = Ident.fresh "t" in
  let u = Ident.fresh "u" in
  abs [ x; pce; pcc ]
    (app (prim "[]")
       [
         var x;
         int (Random.State.int rng width);
         abs [ t ] (app (prim "tuple") [ var t; abs [ u ] (app (Var pcc) [ var u ]) ]);
       ])

(* A stored trigger proc(x tce tcc): raises when the inserted row's first
   field exceeds a threshold, otherwise returns unit. *)
let gen_trigger rng ~width =
  let x = Ident.fresh "row" in
  let tce = Ident.fresh ~sort:Cont "tce" in
  let tcc = Ident.fresh ~sort:Cont "tcc" in
  let t = Ident.fresh "t" in
  abs [ x; tce; tcc ]
    (app (prim "[]")
       [
         var x;
         int (Random.State.int rng width);
         abs [ t ]
           (app (prim ">")
              [
                var t;
                int 15;
                abs [] (app (prim "raise") [ str "trigger-veto" ]);
                abs [] (app (Var tcc) [ unit_ ]);
              ]);
       ])

let rec gen_query rng env (k : value -> app) : app =
  if !(env.qbudget) <= 0 then gen_final rng env k
  else begin
    env.qbudget := !(env.qbudget) - 1;
    let rel, w = pick rng env.rels in
    let bind_rel ?(width = w) name mk =
      let s = Ident.fresh name in
      mk (abs [ s ] (gen_query rng { env with rels = (s, width) :: env.rels } k))
    in
    match Random.State.int rng 100 with
    | n when n < 16 ->
      bind_rel "sel" (fun rest ->
          app (prim "select") [ gen_pred rng ~width:w; var rel; Var env.qce; rest ])
    | n when n < 22 ->
      (* a point select keyed, when one is in scope, by a count result:
         a key bound at run time, as in a parameterized stored query *)
      let key =
        match env.qints with
        | [] -> int (Random.State.int rng 21)
        | qs -> var (pick rng qs)
      in
      bind_rel "pt" (fun rest ->
          app (prim "select") [ gen_point_pred rng ~width:w ~key; var rel; Var env.qce; rest ])
    | n when n < 30 -> bind_rel "dis" (fun rest -> app (prim "distinct") [ var rel; rest ])
    | n when n < 38 -> (
      match List.filter (fun (_, w') -> w' = w) env.rels with
      | (r2, _) :: _ ->
        bind_rel "uni" (fun rest -> app (prim "union") [ var rel; var r2; rest ])
      | [] -> gen_query rng env k)
    | n when n < 44 -> (
      match List.filter (fun (_, w') -> w' = w) env.rels with
      | (r2, _) :: _ ->
        let op = pick rng [ "inter"; "diff" ] in
        bind_rel "cmb" (fun rest -> app (prim op) [ var rel; var r2; rest ])
      | [] -> gen_query rng env k)
    | n when n < 52 ->
      let u = Ident.fresh "u" in
      app (prim "mkindex")
        [ var rel; int (Random.State.int rng w); abs [ u ] (gen_query rng env k) ]
    | n when n < 60 ->
      bind_rel "ixs" (fun rest ->
          app (prim "indexselect")
            [ var rel; int (Random.State.int rng w); qint rng env; Var env.qce; rest ])
    | n when n < 68 ->
      let t = Ident.fresh "t" in
      let u = Ident.fresh "u" in
      let fields = List.init w (fun _ -> qint rng env) in
      app (prim "tuple")
        (fields
        @ [
            abs [ t ]
              (app (prim "insert")
                 [ var rel; var t; Var env.qce; abs [ u ] (gen_query rng env k) ]);
          ])
    | n when n < 74 ->
      let m = Ident.fresh "n" in
      app (prim "count")
        [ var rel; abs [ m ] (gen_query rng { env with qints = m :: env.qints } k) ]
    | n when n < 80 ->
      bind_rel ~width:1 "prj" (fun rest ->
          app (prim "project") [ gen_project_fn rng ~width:w; var rel; Var env.qce; rest ])
    | n when n < 85 -> (
      let candidates = List.filter (fun (_, w') -> w + w' <= 8) env.rels in
      match candidates with
      | [] -> gen_query rng env k
      | _ ->
        let r2, w2 = pick rng candidates in
        if Random.State.bool rng then
          bind_rel ~width:(w + w2) "jn" (fun rest ->
              app (prim "join")
                [ gen_join_pred rng ~w1:w ~w2; var rel; var r2; Var env.qce; rest ])
        else
          (* index-accelerated equi-join; degrades to a nested scan when
             the probed side carries no index *)
          bind_rel ~width:(w + w2) "ixj" (fun rest ->
              app (prim "idxjoin")
                [
                  var rel;
                  var r2;
                  int (Random.State.int rng w);
                  int (Random.State.int rng w2);
                  Var env.qce;
                  rest;
                ]))
    | n when n < 90 ->
      let u = Ident.fresh "u" in
      app (prim "ontrigger") [ var rel; gen_trigger rng ~width:w; abs [ u ] (gen_query rng env k) ]
    | n when n < 95 ->
      (* iterate with an observable side effect per row *)
      let x = Ident.fresh "row" in
      let pce = Ident.fresh ~sort:Cont "pce" in
      let pcc = Ident.fresh ~sort:Cont "pcc" in
      let t = Ident.fresh "t" in
      let u2 = Ident.fresh "u" in
      let body =
        abs [ x; pce; pcc ]
          (app (prim "[]")
             [
               var x;
               int (Random.State.int rng w);
               abs [ t ]
                 (app (prim "ccall")
                    [
                      str "print_int";
                      var t;
                      Var pce;
                      abs [ u2 ] (app (Var pcc) [ unit_ ]);
                    ]);
             ])
      in
      let u = Ident.fresh "u" in
      app (prim "foreach") [ body; var rel; Var env.qce; abs [ u ] (gen_query rng env k) ]
    | _ -> gen_final rng env k
  end

and gen_final rng env k =
  let rel, w = pick rng env.rels in
  match Random.State.int rng 6 with
  | 0 ->
    let b = Ident.fresh "b" in
    app (prim "empty") [ var rel; abs [ b ] (k (var b)) ]
  | 1 ->
    let s = Ident.fresh "s" in
    app (prim "sum") [ gen_field_fn rng ~width:w; var rel; Var env.qce; abs [ s ] (k (var s)) ]
  | 2 ->
    let b = Ident.fresh "b" in
    app (prim "exists") [ gen_pred rng ~width:w; var rel; Var env.qce; abs [ b ] (k (var b)) ]
  | 3 ->
    let m = Ident.fresh "m" in
    let op = pick rng [ "minagg"; "maxagg" ] in
    app (prim op) [ gen_field_fn rng ~width:w; var rel; Var env.qce; abs [ m ] (k (var m)) ]
  | _ ->
    let n = Ident.fresh "n" in
    app (prim "count") [ var rel; abs [ n ] (k (var n)) ]

let query_proc_gen rng ~size =
  let r = Ident.fresh "r" in
  let ce = Ident.fresh ~sort:Cont "ce" in
  let cc = Ident.fresh ~sort:Cont "cc" in
  let env = { rels = [ r, 3 ]; qints = []; qce = ce; qbudget = ref size } in
  abs [ r; ce; cc ] (gen_query rng env (fun v -> app (Var cc) [ v ]))

let query_case_of_seed ?(min_size = 2) ?(max_size = 10) seed =
  let rng = Random.State.make [| 0x517; seed |] in
  let n = Random.State.int rng 11 in
  let rows = List.init n (fun _ -> List.init 3 (fun _ -> Random.State.int rng 21)) in
  let size = min_size + Random.State.int rng (max 1 (max_size - min_size + 1)) in
  let qproc = query_proc_gen rng ~size in
  { qseed = seed; rows; qproc }

let base_index (c : query_case) = if c.qseed land 1 = 0 then Some 0 else None

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

let rec lit_weight_value = function
  | Lit (Literal.Int n) -> Stdlib.abs n
  | Lit (Literal.Str s) -> String.length s
  | Lit (Literal.Real r) -> if r = 0.0 then 0 else 1
  | Lit _ | Var _ | Prim _ -> 0
  | Abs a -> lit_weight_app a.body

and lit_weight_app a =
  List.fold_left (fun n v -> n + lit_weight_value v) (lit_weight_value a.func) a.args

let measure v = Term.size_value v, lit_weight_value v

let int0 = int 0

let all_value_params (f : Term.abs) =
  List.for_all (fun p -> not (Ident.is_cont p)) f.params

let subst_zeros (f : Term.abs) =
  let map = List.fold_left (fun m p -> Ident.Map.add p int0 m) Ident.Map.empty f.params in
  Subst.app_many map f.body

(* Replace the i-th element of a list. *)
let set_nth xs i x = List.mapi (fun j y -> if j = i then x else y) xs

let shrink_literal (l : Literal.t) : Term.value list =
  match l with
  | Literal.Int n when n <> 0 ->
    int 0 :: (if Stdlib.abs n > 1 then [ int (n / 2) ] else [])
  | Literal.Str s when s <> "" -> [ str "" ]
  | Literal.Real r when r <> 0.0 -> [ real 0.0 ]
  | _ -> []

let rec shrink_app (a : Term.app) : Term.app Seq.t =
  (* 1. cut: replace the whole node by the body of one of its continuation
     arguments, its parameters zeroed — removes a whole computation *)
  let cuts =
    List.to_seq a.args
    |> Seq.filter_map (function
         | Abs f when all_value_params f -> Some (subst_zeros f)
         | _ -> None)
  in
  (* 2. contract: a β-redex collapses to its body; value parameters take
     their (trivial) argument or zero, continuation parameters take their
     argument *)
  let contract =
    match a.func with
    | Abs f when List.length f.params = List.length a.args ->
      let map =
        List.fold_left2
          (fun m p arg ->
            let by =
              if Ident.is_cont p then arg
              else
                match arg with
                | Lit _ | Var _ | Prim _ -> arg
                | Abs _ -> int0
            in
            Ident.Map.add p by m)
          Ident.Map.empty f.params a.args
      in
      Seq.return (Subst.app_many map f.body)
    | _ -> Seq.empty
  in
  (* 3. recurse into abstraction bodies *)
  let rec_func =
    match a.func with
    | Abs f -> Seq.map (fun body -> { a with func = Abs { f with body } }) (shrink_app f.body)
    | _ -> Seq.empty
  in
  let rec_args =
    List.to_seq a.args
    |> Seq.mapi (fun i arg -> i, arg)
    |> Seq.concat_map (fun (i, arg) ->
           match arg with
           | Abs f ->
             Seq.map
               (fun body -> { a with args = set_nth a.args i (Abs { f with body }) })
               (shrink_app f.body)
           | _ -> Seq.empty)
  in
  (* 4. shrink literal operands in place *)
  let lits =
    List.to_seq a.args
    |> Seq.mapi (fun i arg -> i, arg)
    |> Seq.concat_map (fun (i, arg) ->
           match arg with
           | Lit l ->
             List.to_seq (shrink_literal l)
             |> Seq.map (fun v -> { a with args = set_nth a.args i v })
           | _ -> Seq.empty)
  in
  Seq.concat (List.to_seq [ cuts; contract; rec_func; rec_args; lits ])

let shrink_value ~allowed_free (v : Term.value) : Term.value Seq.t =
  match v with
  | Abs f ->
    shrink_app f.body
    |> Seq.map (fun body -> Abs { f with body })
    |> Seq.filter (fun v' ->
           measure v' < measure v
           && Ident.Set.subset (Term.free_vars_value v') allowed_free
           &&
           match
             Wf.check_value ~free_allowed:(fun id -> Ident.Set.mem id allowed_free) v'
           with
           | Ok () -> true
           | Error _ -> false)
  | Lit _ | Var _ | Prim _ -> Seq.empty

let shrink_case (c : case) : case Seq.t =
  let term_shrinks =
    shrink_value ~allowed_free:Ident.Set.empty c.proc
    |> Seq.map (fun proc -> { c with proc })
  in
  let input_shrinks =
    List.to_seq [ { c with a = 0 }; { c with a = c.a / 2 }; { c with b = 0 }; { c with b = c.b / 2 } ]
    |> Seq.filter (fun c' -> Stdlib.abs c'.a + Stdlib.abs c'.b < Stdlib.abs c.a + Stdlib.abs c.b)
  in
  Seq.append term_shrinks input_shrinks

let shrink_query_case (c : query_case) : query_case Seq.t =
  let drop_row =
    List.to_seq (List.mapi (fun i _ -> i) c.rows)
    |> Seq.map (fun i -> { c with rows = List.filteri (fun j _ -> j <> i) c.rows })
  in
  let zero_cell =
    List.to_seq (List.mapi (fun i row -> i, row) c.rows)
    |> Seq.concat_map (fun (i, row) ->
           List.to_seq (List.mapi (fun j x -> j, x) row)
           |> Seq.filter_map (fun (j, x) ->
                  if x = 0 then None
                  else
                    Some
                      {
                        c with
                        rows =
                          List.mapi
                            (fun i' row' ->
                              if i' = i then List.mapi (fun j' x' -> if j' = j then 0 else x') row'
                              else row')
                            c.rows;
                      }))
  in
  let term_shrinks =
    shrink_value ~allowed_free:Ident.Set.empty c.qproc
    |> Seq.map (fun qproc -> { c with qproc })
  in
  Seq.concat (List.to_seq [ term_shrinks; drop_row; zero_cell ])

let minimize ~shrink ~fails ?(max_steps = 500) x =
  let rec first seq =
    match seq () with
    | Seq.Nil -> None
    | Seq.Cons (c, rest) -> if fails c then Some c else first rest
  in
  let rec go steps x =
    if steps >= max_steps then x
    else
      match first (shrink x) with
      | Some c -> go (steps + 1) c
      | None -> x
  in
  go 0 x
