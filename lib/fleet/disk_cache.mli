(** Persistent result cache: one append-only checksummed file, layered
    under the scheduler's in-memory LRU so a restarted fleet keeps its
    hit ratio.

    On-disk record format (little-endian), appended to [cache-0.seg] in
    the cache directory:

    {v
    u32 key_len | u32 doc_len | 16B MD5(key ^ doc) | key | doc
    v}

    where [key] is the {!Service.Digest.job_key} and [doc] the compact
    JSON of the cached (scrubbed) result document. {!open_dir} scans the
    file once and indexes [key -> offset]; a record whose checksum does
    not match is skipped with a warning (and counted), and a record
    whose length fields run past the end of the file — a torn final
    write — is cut off the file, so appends land at the indexed offsets.
    Documents are re-read on {!find}, which verifies the key and the
    checksum again, so the index stays O(keys), not O(bytes).

    A duplicate key keeps the {e first} record: the cache stores
    deterministic documents, so any later append for the same key is
    byte-identical by contract and there is nothing to replace.

    Single-process, single-writer; calls are serialized by an internal
    mutex (the scheduler's handler threads share one [t]). *)

type t

val open_dir : ?log:Obs.Log.t -> string -> (t, string) result
(** Open (creating the directory and the file if needed) and index the
    file. [Error] when the directory or the file cannot be opened or
    read; corrupt records are a warning, not an error. *)

val find : t -> string -> Obs.Json.t option
(** Read the document for a key back from disk. A record whose key or
    checksum no longer matches (it rotted since indexing) is dropped
    from the index, counted in {!corrupt_skipped}, and returns [None],
    as does a missing key. *)

val add : t -> string -> Obs.Json.t -> unit
(** Append a record and index it; no-op when the key is present. *)

val length : t -> int
(** Indexed keys. *)

val corrupt_skipped : t -> int
(** Records dropped by checksum/framing failures since {!open_dir}. *)

val close : t -> unit
(** Close the file; the [t] must not be used afterwards. *)
