(* The tmld subprocess and /proc readings.

   tmld runs with its default flags (fsync on, 2 ms commit window) on a
   store and socket inside the benchmark's work directory.  The socket
   path is relative to the shared working directory, so a deep checkout
   never exceeds the Unix-socket path limit.  Every spawned pid is
   tracked until reaped, and an exit hook kills any still running. *)

module Client = Tml_server.Client
module Wire = Tml_server.Wire

type t = { pid : int; addr : Wire.addr; log : string }

let live : int list ref = ref []

(* work directories to delete on any exit, after their servers are gone *)
let workdirs : string list ref = ref []

let reap pid = live := List.filter (( <> ) pid) !live

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live;
      List.iter rm_rf !workdirs)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* /proc files report length 0: read them line by line *)
let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
      go [])

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ ->
    reap pid;
    false
  | exception Unix.Unix_error _ -> false

let spawn ~exe ~dir ?trace_jsonl () =
  let store = Filename.concat dir "db.tml" and sock = Filename.concat dir "s" in
  let log = Filename.concat dir "tmld.log" in
  let args =
    [ exe; "--store"; store; "--socket"; sock ]
    @ match trace_jsonl with Some f -> [ "--trace-jsonl"; f ] | None -> []
  in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close out;
        Unix.close devnull)
      (fun () -> Unix.create_process exe (Array.of_list args) devnull out out)
  in
  live := pid :: !live;
  { pid; addr = Wire.Unix_path sock; log }

(* Dial until the server answers (it creates the socket before its
   first accept); fail fast if the process died. *)
let connect p =
  let deadline = Unix.gettimeofday () +. 60. in
  let rec go () =
    match Client.connect ~client:"spine" p.addr with
    | c -> c
    | exception Client.Client_error msg ->
      if not (alive p.pid) then failwith ("tmld exited during start-up: " ^ read_file p.log)
      else if Unix.gettimeofday () > deadline then failwith ("tmld not reachable: " ^ msg)
      else begin
        Thread.delay 0.01;
        go ()
      end
  in
  go ()

(* SIGTERM drains sessions and seals the last group; escalate if the
   drain hangs, so the benchmark never leaves a process behind *)
let stop p =
  if List.mem p.pid !live then begin
    (try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Unix.gettimeofday () +. 30. in
    while alive p.pid && Unix.gettimeofday () < deadline do
      Thread.delay 0.01
    done;
    if List.mem p.pid !live then begin
      (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ());
      reap p.pid;
      failwith "tmld did not stop on SIGTERM"
    end
  end

(* --- /proc ----------------------------------------------------------- *)

(* peak resident set (VmHWM) in MB *)
let peak_rss_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  List.fold_left
    (fun acc line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] -> (
        match String.split_on_char ' ' (String.trim v) with
        | kb :: _ -> float_of_string kb /. 1024.
        | [] -> acc)
      | _ -> acc)
    0. (read_lines path)

(* user + system CPU seconds of a process; /proc reports clock ticks of
   USER_HZ, which Linux fixes at 100 *)
let cpu_s pid =
  let line = List.hd (read_lines (Printf.sprintf "/proc/%d/stat" pid)) in
  (* the command name may hold spaces: fields restart after its ')' *)
  let i = String.rindex line ')' in
  let fields = Array.of_list (String.split_on_char ' ' (String.sub line (i + 2) (String.length line - i - 2))) in
  (* fields.(0) is field 3 (state); utime and stime are fields 14 and 15 *)
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. 100.

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
