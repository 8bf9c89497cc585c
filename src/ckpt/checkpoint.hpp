#pragma once

/// \file checkpoint.hpp
/// Crash-consistent checkpoint files and the monotonic manifest over them.
///
/// A checkpoint *file* is a magic/version header plus a sequence of named,
/// individually CRC-32-framed records (encoded with format.hpp). A
/// checkpoint *directory* holds numbered files plus MANIFEST.json, which
/// lists committed checkpoints newest-last with their whole-file CRCs.
///
/// Torn writes are never observed, by protocol rather than by luck:
///
///   1. the file is written to `<name>.tmp`, fsync'd, then renamed into
///      place (rename(2) is atomic within a filesystem), and the directory
///      is fsync'd so the new name itself is durable;
///   2. only after the file is durable is the manifest rewritten — itself
///      through the same tmp/fsync/rename dance — so the manifest only ever
///      names fully-committed files;
///   3. restore walks the manifest newest→oldest, validating the whole-file
///      CRC and decoding under try/catch, and *falls back* to the previous
///      entry on any mismatch (a bit-flipped or truncated checkpoint
///      degrades recovery by one round; it never crashes it).
///
/// The manifest is monotonic in `step`: `CheckpointDir::submit` rejects a
/// step that does not advance past the newest submitted one, which turns a
/// driver bug (double restore, clock confusion) into a loud error instead of
/// a silently reordered history.
///
/// Commits run off the caller's thread. One process-wide writer thread,
/// started by the first submit, encodes each submitted state into a reused
/// file image and runs the protocol above; each directory has at most one
/// commit queued or running. Every reader of a directory (`entries`,
/// `load_latest`, through any CheckpointDir over the same path) first waits
/// for that directory's queued commit, so a process reads its own writes,
/// and a killed process loses at most the commit in flight.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ckpt/format.hpp"
#include "trace/trace.hpp"

namespace avgpipe::ckpt {

/// Per-record metadata surfaced by readers and the ckpt_inspect tool.
struct RecordInfo {
  std::string name;
  std::uint64_t size = 0;    ///< payload bytes
  std::uint32_t crc = 0;     ///< stored CRC-32 over name + payload
  bool crc_ok = false;
};

/// In-memory builder for one checkpoint file. Records are encoded straight
/// into the final file image (framing and payload bytes are copied exactly
/// once) and `commit` performs the atomic write protocol in one shot —
/// there is deliberately no incremental-append mode, so a crash mid-capture
/// leaves only a `.tmp` file that the manifest never references.
///
/// Each payload is CRC'd once, as it is closed; the record CRC (name +
/// payload) and the whole-file CRC are both derived from that one pass with
/// crc32_combine, so `commit` never re-reads the image.
class CheckpointWriter {
 public:
  CheckpointWriter();

  /// Pre-size the image for `bytes` of records so encoding never
  /// reallocates it.
  void reserve(std::size_t bytes);

  /// Drop every record but keep the image's capacity, so one writer encodes
  /// file after file without reallocating.
  void clear();

  /// Add a named record whose payload `fill(ByteWriter&)` appends in place
  /// (names must be unique within a file).
  template <typename Fill>
  void record(const std::string& name, Fill&& fill) {
    begin_record(name);
    fill(image_);
    end_record();
  }

  struct Committed {
    std::uint64_t bytes = 0;  ///< final file size
    std::uint32_t crc = 0;    ///< CRC-32 over the entire file
  };

  /// Commit the image atomically to `path` (write tmp, fsync, rename, fsync
  /// parent dir). Throws avgpipe::Error on any I/O failure; on throw the
  /// target path is untouched and no `.tmp` is left behind.
  Committed commit(const std::string& path) const;

  /// The file image `commit` writes (complete after every record).
  const std::vector<std::uint8_t>& image() const { return image_.buffer(); }

 private:
  void begin_record(const std::string& name);
  void end_record();

  ByteWriter image_;
  std::vector<std::string> names_;
  std::size_t payload_begin_ = 0;  ///< of the open record
  std::uint32_t name_crc_ = 0;     ///< of the open record
  /// CRC over image bytes [header end, crc_end_): everything but the header,
  /// whose record count changes with every record.
  std::uint32_t body_crc_ = 0;
  std::size_t crc_end_ = 0;
};

/// Parsed checkpoint file with validated record CRCs. Owns the file image;
/// payloads are views into it, never copies.
class CheckpointReader {
 public:
  /// Strict open: throws avgpipe::Error on a bad header, truncated record
  /// framing, or any record CRC mismatch.
  static CheckpointReader open(const std::string& path);

  /// Strict parse of an image already in memory; `what` names it in errors.
  /// With `expected_crc`, the whole-file CRC — derived in the same pass that
  /// validates the record CRCs — must match it too.
  static CheckpointReader parse(std::vector<std::uint8_t> image,
                                const std::string& what,
                                const std::uint32_t* expected_crc = nullptr);

  /// Lenient parse for inspection: never throws on corruption; `ok` is
  /// false and `error` explains the first structural failure, and records
  /// parsed before the failure (with their per-record `crc_ok`) survive.
  struct FileInfo {
    bool ok = false;
    std::string error;
    std::uint32_t version = 0;
    std::uint64_t bytes = 0;
    std::uint32_t file_crc = 0;  ///< CRC over the entire file image
    std::vector<RecordInfo> records;
  };
  static FileInfo inspect(const std::string& path);

  const std::vector<RecordInfo>& records() const { return records_; }
  bool has(const std::string& name) const;
  /// Payload of the named record, valid while the reader lives; throws if
  /// absent.
  std::span<const std::uint8_t> payload(const std::string& name) const;

 private:
  std::vector<std::uint8_t> image_;
  std::vector<RecordInfo> records_;
  std::vector<std::size_t> offsets_;  ///< payload offsets, parallel to records_
};

/// One committed checkpoint in MANIFEST.json.
struct ManifestEntry {
  long step = -1;
  std::string file;          ///< basename within the checkpoint dir
  std::uint64_t bytes = 0;
  std::uint32_t crc = 0;     ///< whole-file CRC-32
};

struct TrainState;  // state.hpp

/// Where the writer thread records a commit: a kCheckpointCommit span in
/// `buffer`, on `tracer`'s clock. The writer is the buffer's only emitter.
struct CommitTrace {
  const trace::Tracer* tracer = nullptr;
  trace::TraceBuffer* buffer = nullptr;
};

/// A directory of checkpoints governed by the atomic-commit protocol above.
class CheckpointDir {
 public:
  /// \param dir created if absent.
  /// \param retain how many newest checkpoints to keep (>= 2, so a corrupted
  ///        newest entry always has a fallback).
  explicit CheckpointDir(std::string dir, std::size_t retain = 2);
  /// Waits for this directory's queued commit, if any (see `drain`).
  ~CheckpointDir();

  const std::string& dir() const { return dir_; }

  /// Committed checkpoints, oldest first (parsed fresh from MANIFEST.json
  /// once this directory's queued commit has landed).
  std::vector<ManifestEntry> entries() const;

  /// Queue `state` for commit on the writer thread and return its entry
  /// with `step` and `file` set (`bytes` and `crc` are known once the commit
  /// lands: see `entries()`). Waits first for this directory's previous
  /// commit, so at most one is in flight and `state.step` must strictly
  /// exceed every step submitted before. The writer owns `state` until the
  /// commit lands, then hands it back to the directory's next waiter, which
  /// frees it on its own thread. Tensor copies share storage, so nothing
  /// else may write `state`'s tensors meanwhile: submit a fresh capture.
  /// The commit prunes beyond the retention count (manifest rewritten
  /// before any file is unlinked, so a crash mid-prune leaves only orphaned
  /// files, never dangling references).
  ManifestEntry submit(TrainState&& state, CommitTrace trace = {});

  /// Block until this directory's queued commit, if any, has landed. A
  /// failed commit's error is raised here as avgpipe::Error, once.
  void wait() const;

  /// Commit `state` through the writer and wait for it: the committed
  /// entry, `bytes` and `crc` included. The writer reads `state` in place.
  ManifestEntry write(const TrainState& state);

  struct LoadResult {
    bool ok = false;
    long step = -1;
    int fallbacks = 0;   ///< entries skipped due to corruption
    std::string file;    ///< the file actually restored
    std::string error;   ///< last failure when !ok
  };

  /// Restore the newest loadable checkpoint into `state` (after this
  /// directory's queued commit has landed), falling back over corrupted
  /// entries (CRC or decode failure, or a file whose decoded step is not
  /// its entry's) newest→oldest. `ok == false` means no entry survived
  /// (empty manifest or all corrupted); `state` is then untouched.
  LoadResult load_latest(TrainState* state) const;

  /// The canonical path: the writer's key for this directory, shared by
  /// every CheckpointDir over it (see `drain`).
  const std::string& key() const { return key_; }

 private:
  /// Queue a commit of `state`, which the writer reads until it lands.
  /// `owned` holds a submitted state for the writer to hand back; it is
  /// null when the caller keeps `state` and waits (`write`).
  ManifestEntry enqueue(const TrainState& state,
                        std::unique_ptr<TrainState> owned, CommitTrace trace);

  std::string dir_;
  std::string key_;
  std::size_t retain_;
};

/// Block until the commit queued for the directory whose `key()` is `key`,
/// if any, has landed, and free the state it hands back. Never throws: a
/// failed commit's error stays for that directory's next `submit`, `wait`,
/// `entries` or `load_latest`. For destructors: an owner may free the
/// CheckpointDir before what saved through it.
void drain(const std::string& key) noexcept;

// -- corruption injection (fault layer + chaos soak) --------------------------

/// Flip one bit of the file at `path` (bit_index modulo file size * 8). The
/// record CRC must catch this on the next open. Throws on I/O failure.
void flip_bit(const std::string& path, std::uint64_t bit_index);

/// Truncate the file to `new_size` bytes — a simulated torn write.
void truncate_file(const std::string& path, std::uint64_t new_size);

/// File size in bytes; throws if the file cannot be stat'd.
std::uint64_t file_size(const std::string& path);

}  // namespace avgpipe::ckpt
