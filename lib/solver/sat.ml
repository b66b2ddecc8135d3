(** CDCL SAT solver on flat arrays: two-watched-literal propagation,
    first-UIP clause learning with non-chronological backjumping, EVSIDS
    variable activities with a binary heap, phase saving, and Luby
    restarts — a compact MiniSat.

    Literal encoding: variable [v] (0-based) has positive literal [2v] and
    negative literal [2v+1].  A clause is a bare [int array] whose first
    two literals are the watched ones.

    The search is deterministic, and its models are answers: exit-code
    witnesses come from them and solver stores keep them.  Two orders are
    therefore fixed, not incidental.  {!add_clause} stores a clause's
    literals in ascending order.  A literal's watchers are visited newest
    first, and the ones it keeps are written back in visit order, so each
    visit reverses them (see [propagate]).  test/solver_digests.tsv pins
    the answers this gives. *)

type clause = int array

(* the reason of a decision or a root unit: one shared empty clause *)
let no_reason : clause = [||]

type t = {
  mutable nvars : int;
  mutable watches : clause array array;  (* literal -> watchers, newest on top *)
  mutable nwatches : int array;          (* literal -> number of watchers *)
  mutable spare : clause array;          (* a visit's output; swapped in after it *)
  mutable assigns : int array;           (* var -> -1 unassigned / 0 / 1 *)
  mutable level : int array;
  mutable reason : clause array;
  mutable activity : float array;
  mutable phase : bool array;            (* saved phase *)
  mutable heap : int array;              (* binary max-heap of vars *)
  mutable heap_pos : int array;          (* var -> index in heap, -1 absent *)
  mutable heap_size : int;
  mutable trail : int array;             (* literals, in assignment order *)
  mutable trail_size : int;
  mutable trail_lim : int array;         (* decision level boundaries *)
  mutable trail_lim_size : int;
  mutable qhead : int;
  mutable seen : bool array;             (* analyze's marks; all false between conflicts *)
  mutable lower : int array;             (* analyze's lower-level literals *)
  mutable var_inc : float;
  mutable ok : bool;
  mutable conflicts : int;
}

let create () =
  {
    nvars = 0;
    watches = [||];
    nwatches = [||];
    spare = [||];
    assigns = [||];
    level = [||];
    reason = [||];
    activity = [||];
    phase = [||];
    heap = [||];
    heap_pos = [||];
    heap_size = 0;
    trail = [||];
    trail_size = 0;
    trail_lim = [| 0 |];
    trail_lim_size = 0;
    qhead = 0;
    seen = [||];
    lower = [||];
    var_inc = 1.0;
    ok = true;
    conflicts = 0;
  }

(* ---------------- activity heap ---------------- *)

let heap_less s v w = s.activity.(v) > s.activity.(w)

let rec sift_up s i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if heap_less s s.heap.(i) s.heap.(p) then begin
      let tmp = s.heap.(i) in
      s.heap.(i) <- s.heap.(p);
      s.heap.(p) <- tmp;
      s.heap_pos.(s.heap.(i)) <- i;
      s.heap_pos.(s.heap.(p)) <- p;
      sift_up s p
    end
  end

let rec sift_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_size && heap_less s s.heap.(l) s.heap.(!best) then best := l;
  if r < s.heap_size && heap_less s s.heap.(r) s.heap.(!best) then best := r;
  if !best <> i then begin
    let tmp = s.heap.(i) in
    s.heap.(i) <- s.heap.(!best);
    s.heap.(!best) <- tmp;
    s.heap_pos.(s.heap.(i)) <- i;
    s.heap_pos.(s.heap.(!best)) <- !best;
    sift_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    s.heap.(s.heap_size) <- v;
    s.heap_pos.(v) <- s.heap_size;
    s.heap_size <- s.heap_size + 1;
    sift_up s s.heap_pos.(v)
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_size <- s.heap_size - 1;
  s.heap.(0) <- s.heap.(s.heap_size);
  s.heap_pos.(s.heap.(0)) <- 0;
  s.heap_pos.(v) <- -1;
  if s.heap_size > 0 then sift_down s 0;
  v

(* ---------------- variables and clauses ---------------- *)

let new_var s =
  let v = s.nvars in
  if v = Array.length s.assigns then begin
    (* grow every per-variable array together *)
    let cap = max 8 (2 * v) in
    let grow a n default =
      let a' = Array.make n default in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    in
    s.watches <- grow s.watches (2 * cap) [||];
    s.nwatches <- grow s.nwatches (2 * cap) 0;
    s.assigns <- grow s.assigns cap (-1);
    s.level <- grow s.level cap 0;
    s.reason <- grow s.reason cap no_reason;
    s.activity <- grow s.activity cap 0.0;
    s.phase <- grow s.phase cap false;
    s.heap <- grow s.heap cap 0;
    s.heap_pos <- grow s.heap_pos cap (-1);
    s.trail <- grow s.trail cap 0;
    s.trail_lim <- grow s.trail_lim (cap + 1) 0;
    s.seen <- grow s.seen cap false;
    s.lower <- grow s.lower cap 0
  end;
  s.nvars <- v + 1;
  heap_insert s v;
  v

let lit_of_var v positive = (2 * v) + if positive then 0 else 1
let var_of l = l lsr 1
let lit_sign l = l land 1 = 0  (* true = positive *)
let neg l = l lxor 1

(** Value of a literal: -1 unassigned, 1 true, 0 false. *)
let lit_value s l =
  let a = s.assigns.(var_of l) in
  if a < 0 then -1 else if lit_sign l then a else 1 - a

let decision_level s = s.trail_lim_size

let new_level s =
  s.trail_lim.(s.trail_lim_size) <- s.trail_size;
  s.trail_lim_size <- s.trail_lim_size + 1

let enqueue s l reason =
  let v = var_of l in
  s.assigns.(v) <- (if lit_sign l then 1 else 0);
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  s.phase.(v) <- lit_sign l;
  s.trail.(s.trail_size) <- l;
  s.trail_size <- s.trail_size + 1

let bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do s.activity.(i) <- s.activity.(i) *. 1e-100 done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  if s.heap_pos.(v) >= 0 then sift_up s s.heap_pos.(v)

let decay s = s.var_inc <- s.var_inc /. 0.95

(** Push [c] on top of [l]'s watchers. *)
let watch s l c =
  let n = s.nwatches.(l) in
  let ws = s.watches.(l) in
  let ws =
    if n < Array.length ws then ws
    else begin
      let ws' = Array.make (max 4 (2 * n)) no_reason in
      Array.blit ws 0 ws' 0 n;
      s.watches.(l) <- ws';
      ws'
    end
  in
  ws.(n) <- c;
  s.nwatches.(l) <- n + 1

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = s.trail_lim.(lvl) in
    for i = s.trail_size - 1 downto bound do
      let v = var_of s.trail.(i) in
      s.assigns.(v) <- -1;
      s.reason.(v) <- no_reason;
      heap_insert s v
    done;
    s.trail_size <- bound;
    s.qhead <- bound;
    s.trail_lim_size <- lvl
  end

(* insertion sort: added clauses are short (a Tseitin gate's have at most
   three literals), and [Array.sort] allocates its closures on every call *)
let sort_lits (c : clause) =
  for i = 1 to Array.length c - 1 do
    let l = c.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && c.(!j) > l do
      c.(!j + 1) <- c.(!j);
      decr j
    done;
    c.(!j + 1) <- l
  done

let add_clause s (c : clause) =
  (* clause addition reasons about root-level truth only: drop any
     assignment left over from a previous solve *)
  if decision_level s > 0 then cancel_until s 0;
  if s.ok then begin
    sort_lits c;
    (* sorted, a duplicate sits next to its copy and l next to ¬l (2v and
       2v+1); compact the literals not false at the root to the front *)
    let n = Array.length c in
    let kept = ref 0 and prev = ref (-1) and skip = ref false and i = ref 0 in
    while (not !skip) && !i < n do
      let l = c.(!i) in
      incr i;
      if l <> !prev then begin
        if l = neg !prev then skip := true (* tautology *)
        else begin
          match lit_value s l with
          | 1 -> skip := true (* true at the root *)
          | 0 -> () (* false at the root: dropped *)
          | _ ->
              c.(!kept) <- l;
              incr kept
        end;
        prev := l
      end
    done;
    if not !skip then
      if !kept = 0 then s.ok <- false
      else if !kept = 1 then enqueue s c.(0) no_reason
      else begin
        let c = if !kept = n then c else Array.sub c 0 !kept in
        watch s (neg c.(0)) c;
        watch s (neg c.(1)) c
      end
  end

(* ---------------- propagation ---------------- *)

(** Propagate the trail; returns the conflicting clause, or [no_reason]
    when there is none. *)
let propagate s : clause =
  let confl = ref no_reason in
  while !confl == no_reason && s.qhead < s.trail_size do
    let l = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    (* literal l became true; visit the clauses watching ~l, newest first.
       The kept ones go to [out] in visit order, which reverses them. *)
    let n = s.nwatches.(l) in
    if n > 0 then begin
      let ws = s.watches.(l) in
      if Array.length s.spare < n then
        s.spare <- Array.make (Array.length ws) no_reason;
      let out = s.spare in
      let kept = ref 0 in
      let falsel = neg l in
      let i = ref (n - 1) in
      while !i >= 0 do
        let c = ws.(!i) in
        decr i;
        (* make sure the false literal is at position 1 *)
        if c.(0) = falsel then begin
          c.(0) <- c.(1);
          c.(1) <- falsel
        end;
        if lit_value s c.(0) = 1 then begin
          (* already satisfied; keep watching *)
          out.(!kept) <- c;
          incr kept
        end
        else begin
          (* find a new watch *)
          let len = Array.length c in
          let k = ref 2 in
          while !k < len && lit_value s c.(!k) = 0 do incr k done;
          if !k < len then begin
            let w = c.(!k) in
            c.(!k) <- c.(1);
            c.(1) <- w;
            watch s (neg w) c
          end
          else begin
            (* unit or conflict *)
            out.(!kept) <- c;
            incr kept;
            if lit_value s c.(0) = 0 then begin
              (* conflict: keep the unvisited watchers and bail *)
              while !i >= 0 do
                out.(!kept) <- ws.(!i);
                incr kept;
                decr i
              done;
              s.qhead <- s.trail_size;
              confl := c
            end
            else enqueue s c.(0) c
          end
        end
      done;
      s.watches.(l) <- out;
      s.nwatches.(l) <- !kept;
      s.spare <- ws
    end
  done;
  !confl

(* ---------------- conflict analysis (first UIP) ---------------- *)

(** The first-UIP clause of a conflict, UIP first, and its backjump
    level. *)
let analyze s (confl : clause) : clause * int =
  let seen = s.seen and lower = s.lower in
  let nlower = ref 0 in
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let idx = ref (s.trail_size - 1) in
  let continue_ = ref true in
  while !continue_ do
    let c = !confl in
    for j = 0 to Array.length c - 1 do
      let q = c.(j) in
      if !p = -1 || q <> !p then begin
        let v = var_of q in
        if (not seen.(v)) && s.level.(v) > 0 then begin
          seen.(v) <- true;
          bump s v;
          if s.level.(v) >= decision_level s then incr counter
          else begin
            lower.(!nlower) <- q;
            incr nlower
          end
        end
      end
    done;
    (* pick next literal from trail *)
    while not seen.(var_of s.trail.(!idx)) do decr idx done;
    let l = s.trail.(!idx) in
    decr idx;
    let v = var_of l in
    seen.(v) <- false;
    confl := s.reason.(v);
    p := l;
    decr counter;
    if !counter <= 0 then continue_ := false
  done;
  (* the current level's marks were cleared as they were popped; clear
     the lower levels' *)
  let k = !nlower in
  for i = 0 to k - 1 do seen.(var_of lower.(i)) <- false done;
  (* the UIP, then the lower-level literals latest found first *)
  let uip = neg !p in
  let learnt = Array.make (k + 1) uip in
  for i = 1 to k do learnt.(i) <- lower.(k - i) done;
  (* backjump level: second highest level in the clause *)
  let bl = ref 0 in
  for i = 1 to k do
    if learnt.(i) <> uip then bl := max !bl s.level.(var_of learnt.(i))
  done;
  (learnt, !bl)

(* ---------------- main search ---------------- *)

let luby i =
  (* the Luby restart sequence *)
  let rec go k sz seq =
    if sz >= i + 1 then
      if sz = i + 1 && seq >= 0 then k
      else go (k / 2) ((sz - 1) / 2) (seq - 1)
    else k
  in
  let k = ref 1 and sz = ref 1 in
  while !sz < i + 1 do
    sz := (2 * !sz) + 1;
    k := !k * 2
  done;
  go !k !sz (i - (!sz / 2))

let rec pick_branch s =
  if s.heap_size = 0 then -1
  else begin
    let v = heap_pop s in
    if s.assigns.(v) < 0 then v else pick_branch s
  end

exception Sat_found
exception Unsat_found

(** Raised when [solve] exceeds its wall-clock deadline. *)
exception Timeout

let solve ?(assumptions = []) ?deadline (s : t) : bool =
  if decision_level s > 0 then cancel_until s 0;
  if not s.ok then false
  else begin
    let assumptions = Array.of_list assumptions in
    let nassumed = Array.length assumptions in
    let check_deadline () =
      match deadline with
      | Some d when s.conflicts land 255 = 0 && Unix.gettimeofday () > d ->
          raise Timeout
      | _ -> ()
    in
    let restarts = ref 0 in
    let result = ref false in
    (try
       if propagate s != no_reason then raise Unsat_found;
       while true do
         let budget = 64 * luby !restarts in
         let conflicts_here = ref 0 in
         (* restart loop *)
         (try
            while true do
              let confl = propagate s in
              if confl != no_reason then begin
                s.conflicts <- s.conflicts + 1;
                incr conflicts_here;
                check_deadline ();
                if decision_level s <= nassumed then
                  (* conflict under assumptions (or at root) *)
                  raise Unsat_found;
                let (learnt, bl) = analyze s confl in
                cancel_until s (max bl nassumed);
                let l = learnt.(0) in
                if Array.length learnt = 1 then begin
                  cancel_until s nassumed;
                  if lit_value s l = 0 then raise Unsat_found
                  else if lit_value s l < 0 then enqueue s l no_reason
                end
                else begin
                  (* ensure watch order: learnt.(0)=uip, learnt.(1)=highest level *)
                  let best = ref 1 in
                  for i = 2 to Array.length learnt - 1 do
                    if s.level.(var_of learnt.(i)) > s.level.(var_of learnt.(!best))
                    then best := i
                  done;
                  let tmp = learnt.(1) in
                  learnt.(1) <- learnt.(!best);
                  learnt.(!best) <- tmp;
                  watch s (neg learnt.(0)) learnt;
                  watch s (neg learnt.(1)) learnt;
                  if lit_value s l < 0 then enqueue s l learnt
                end;
                decay s;
                if !conflicts_here > budget then begin
                  cancel_until s nassumed;
                  raise Exit
                end
              end
              else begin
                (* extend assignment: assumptions first, then decide *)
                let dl = decision_level s in
                if dl < nassumed then begin
                  let a = assumptions.(dl) in
                  match lit_value s a with
                  | 1 -> new_level s (* already true: an empty decision level *)
                  | 0 -> raise Unsat_found
                  | _ ->
                      new_level s;
                      enqueue s a no_reason
                end
                else begin
                  let v = pick_branch s in
                  if v < 0 then raise Sat_found;
                  new_level s;
                  enqueue s (lit_of_var v s.phase.(v)) no_reason
                end
              end
            done
          with Exit -> ());
         incr restarts
       done
     with
    | Sat_found -> result := true
    | Unsat_found -> result := false);
    if not !result then cancel_until s 0;
    !result
  end

(** Model value of a variable after a SAT answer. *)
let model_value s v = s.assigns.(v) = 1
