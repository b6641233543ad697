(** Whole-system durability: checkpoints + a group-committed
    write-ahead log.

    The paper's Subscription Manager keeps its state in MySQL "for
    recovery" (§3.3); this module gives the reproduction the same
    property for {e every} stateful stage, stdlib-only.  A durable
    directory holds:

    - [MANIFEST] — a one-record file holding the committed generation
      number, updated by an atomic temp+rename; it is the single
      commit point of a checkpoint.  The bytes it references are
      fsynced before the rename and the directory entry after it, so
      the commit point survives power loss, not just a process kill.
    - [gen-N.snap] — the generation's snapshot: one record per stage,
      its payload inline, except that a stage whose every mutation is
      journaled ({!set_wal_carried}) may be a [Delta] reference to the
      earlier generation whose snapshot last wrote it inline, plus the
      WALs retained since.
    - [gen-N.wal] — the write-ahead log of operations since
      generation [N]'s snapshot, one file that grows until the next
      checkpoint starts generation [N+1].  Operations are buffered
      into {e transactions} and appended as single records, so a torn
      tail drops whole transactions, never half of one — that is what
      keeps cross-stage state mutually consistent after a kill.
    - [subscriptions.log] — the {!Xy_submgr.Persist} subscription log.

    Any other file belongs to the caller: the CLI, for one, keeps its
    {!Xy_reporter.Sink.ledger} at [reports.log] beside them, and
    clears it itself on a fresh run.

    Transactions are {e group-committed}: {!commit} seals the record
    into an in-memory batch, and the batch is written + fsynced once
    every [config.sync_every] transactions or at an explicit
    {!barrier}.  A kill loses at most the un-synced batch — callers
    that acknowledge work externally (report delivery) must
    {!barrier} before acknowledging, which preserves at-least-once.

    Every file here is a sequence of {!Record_log} records, with each
    stored field (stage names, section kinds, generations) inside the
    record's checksum.  {!Wal.scan} distinguishes a torn tail
    (expected after a crash) from mid-log corruption with
    {!Record_log.read}.

    Stages plug in through a [Durable.S]-style contract — they encode
    snapshots and operations as strings (via {!Xy_util.Codec}) and
    apply them on restore; this module never interprets payloads. *)

(** One operation: which stage owns it, and its opaque payload. *)
type op = { stage : string; payload : string }

(** Verdict about the end of a scanned log (see {!Record_log.tail}). *)
type tail = Record_log.tail = Clean | Torn | Corrupt

type config = {
  sync_every : int;
      (** group-commit batch size: fsync once per this many committed
          transactions (1 = sync every commit) *)
}

val default_config : config
(** [{ sync_every = 32 }] *)

(** A snapshot section: the stage's payload inline, or a delta — the
    payload at a base generation plus the stage's journaled ops in the
    retained WALs of generations base..current (see
    {!set_wal_carried}).  A delta always points at the generation that
    wrote the payload inline, never at another delta, so restore
    chases at most one reference per stage. *)
type section = Inline of string | Delta of int

(** {2 Low-level files} (exposed for the crash-matrix tests) *)

module Wal : sig
  val append_txn : out_channel -> op list -> unit
  (** Append one transaction record, then flush and fsync.  The
      record's payload is the {!Xy_util.Codec} list of the ops'
      (stage, payload) pairs. *)

  val scan : string -> op list list * tail
  (** Read back every intact transaction of one WAL file, in order,
      plus the tail verdict.  A missing file is [([], Clean)]. *)

  val scan_generation : dir:string -> gen:int -> op list list * tail
  (** {!scan} of generation [gen]'s WAL, [gen-N.wal] in [dir]. *)
end

module Snapshot : sig
  val write : string -> (string * section) list -> unit
  (** Write sections to [path] atomically (temp file, fsync, rename,
      directory fsync), one record per section: the {!Xy_util.Codec}
      fields (stage, [S], payload) inline, (stage, [D], generation)
      delta. *)

  val load : string -> ((string * section) list, string) result
  (** Read sections back, verifying every record.  A missing file,
      a torn or a damaged record is an error.  Delta sections are
      returned unresolved. *)
end

type t

val open_fresh : ?config:config -> string -> t
(** Create (or reset) a durable directory for a fresh run, making its
    missing parent directories too: any
    previous manifest, snapshots, WALs (including orphans a killed
    checkpoint left behind, and the [gen-N.wal.K] segments an older
    build rotated into), the subscription log and the
    [subscriptions.log.compact] temp a killed rewrite of it
    ({!Record_log.rewrite}) leaves are removed, and generation 0
    starts with an empty WAL.  Files of the caller's are left
    alone. *)

val open_existing : ?config:config -> string -> t option
(** Attach to a durable directory left by a previous run.  [None] if
    the manifest is missing or damaged.  The WAL is {e not} opened for
    appending — its tail may be torn; restore must end with a
    {!checkpoint}, which starts the next generation. *)

val dir : t -> string
val generation : t -> int

val subscription_log_path : t -> string
(** Where the subscription log lives inside a durable directory. *)

val journal : t -> stage:string -> string -> unit
(** Add an op to the transaction in progress. *)

val commit : t -> unit
(** Seal the transaction in progress into the group-commit batch; the
    batch is written and fsynced once [config.sync_every]
    transactions accumulate (or at {!barrier} / {!checkpoint}).
    No-op if the transaction is empty. *)

val barrier : t -> unit
(** Write and fsync the group-commit batch now.  Required before any
    external acknowledgement (e.g. report delivery): transactions in
    an un-synced batch are lost by a kill. *)

val discard : t -> unit
(** Drop the transaction in progress {e and} the un-synced
    group-commit batch — models a kill, used by fault injection. *)

val set_wal_carried : t -> string list -> unit
(** Declare the stages whose {e every} mutation is journaled as an
    op.  Once a snapshot holds such a stage's payload inline (its
    base), later checkpoints write it as a [Delta] section — base
    payload by reference plus the retained WALs since — instead of
    re-encoding it, so the checkpoint pause does not pay for the
    stage's size.  The chain self-bounds: the retained WALs hold
    every stage's ops, so once the WAL bytes written since the base
    (all stages, as framed) outgrow the base payload, the next
    checkpoint writes a fresh inline payload and the retained WALs
    are released.  The WAL a chain keeps, and restore replays, stays
    under its base payload's size plus one checkpoint interval's
    WAL.
    Stages that mutate without journaling an op must not be declared
    here — their delta replay would silently miss those mutations. *)

val set_fuse : t -> (string -> unit) -> unit
(** Install a hook consulted at checkpoint boundaries with a label:
    ["checkpoint-begin"], ["carry-forward"] (only when the checkpoint
    writes a [Delta] section), ["snapshot-written"], ["wal-created"],
    ["manifest-committed"].  Fault injection uses this to kill the
    process inside every crash window. *)

val set_obs : t -> Xy_obs.Obs.t -> unit
(** Register durability timings in [obs] under the [durable] stage:
    [checkpoint_pause] and [fsync_batch] wall-clock histograms. *)

val checkpoint : t -> snapshot:(string * (unit -> string list)) list -> unit
(** Commit + barrier, then write snapshot [gen+1]: every stage has its
    thunk run and its payload written inline — except a WAL-carried
    stage with a base whose WAL bytes since (every stage's) are still
    under the base payload's size, which writes a [Delta] reference to
    its base generation.  A thunk returns its payload as pieces, written in
    order under the section's one checksum and never joined, so a
    stage can hand over cached encodings; a single-string stage
    returns one piece.  A loaded section is one string ({!Inline}).
    Then a fresh WAL for [gen+1] is created and the directory
    fsynced, the MANIFEST flips to [gen+1] (the single commit point),
    and only then are older files removed, except the delta bases'
    snapshots and the WAL generations a delta still replays from — so
    a kill anywhere in the sequence leaves a directory that restores
    to a consistent state. *)

val load_latest :
  t -> ((string * string) list * op list list * tail, string) result
(** Load the committed generation's snapshot with delta sections
    resolved (each chases exactly one reference: its payload is its
    base generation's), plus the replayable transactions: the delta
    stages' ops from the retained WAL generations first, then the
    current generation's WAL, with the current tail verdict.  A
    brand-new generation 0 with no snapshot file is
    [Ok ([], txns, tail)]; any later generation without one means the
    manifest is damaged, an error.  So is a replayed generation with a
    [gen-N.wal.1]: an older build rotated that WAL into segments, and
    replaying the first alone would silently drop committed
    transactions. *)

val syncs : t -> int
(** fsync batches issued for the WAL (group-commit diagnostics). *)
