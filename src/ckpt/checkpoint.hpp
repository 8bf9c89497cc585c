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
/// The manifest is monotonic in `step`: `CheckpointDir::write` rejects a
/// step that does not advance past the newest entry, which turns a driver
/// bug (double restore, clock confusion) into a loud error instead of a
/// silently reordered history.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ckpt/format.hpp"

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

/// A directory of checkpoints governed by the atomic-commit protocol above.
class CheckpointDir {
 public:
  /// \param dir created if absent.
  /// \param retain how many newest checkpoints to keep (>= 2, so a corrupted
  ///        newest entry always has a fallback).
  explicit CheckpointDir(std::string dir, std::size_t retain = 2);

  const std::string& dir() const { return dir_; }

  /// Committed checkpoints, oldest first (parsed fresh from MANIFEST.json).
  std::vector<ManifestEntry> entries() const;

  /// Capture `state` as a new checkpoint. `state.step` must strictly exceed
  /// the newest manifest entry. Prunes beyond the retention count (manifest
  /// is rewritten before any file is unlinked, so a crash mid-prune leaves
  /// only orphaned files, never dangling references).
  ManifestEntry write(const TrainState& state);

  struct LoadResult {
    bool ok = false;
    long step = -1;
    int fallbacks = 0;   ///< entries skipped due to corruption
    std::string file;    ///< the file actually restored
    std::string error;   ///< last failure when !ok
  };

  /// Restore the newest loadable checkpoint into `state`, falling back over
  /// corrupted entries (CRC or decode failure) newest→oldest. `ok == false`
  /// means no entry survived (empty manifest or all corrupted).
  LoadResult load_latest(TrainState* state) const;

 private:
  void write_manifest(const std::vector<ManifestEntry>& entries) const;

  std::string dir_;
  std::size_t retain_;
};

// -- corruption injection (fault layer + chaos soak) --------------------------

/// Flip one bit of the file at `path` (bit_index modulo file size * 8). The
/// record CRC must catch this on the next open. Throws on I/O failure.
void flip_bit(const std::string& path, std::uint64_t bit_index);

/// Truncate the file to `new_size` bytes — a simulated torn write.
void truncate_file(const std::string& path, std::uint64_t new_size);

/// File size in bytes; throws if the file cannot be stat'd.
std::uint64_t file_size(const std::string& path);

}  // namespace avgpipe::ckpt
