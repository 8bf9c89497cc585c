#include "ckpt/checkpoint.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "ckpt/state.hpp"
#include "common/annotations.hpp"

namespace avgpipe::ckpt {

namespace {

constexpr char kMagic[4] = {'A', 'V', 'G', 'P'};
/// Header: magic, u32 version, u32 record count.
constexpr std::size_t kHeaderBytes = 12;
constexpr std::size_t kCountOffset = 8;
constexpr const char* kManifestName = "MANIFEST.json";
constexpr const char* kManifestFormat = "avgpipe-ckpt-manifest-v1";

std::string parent_dir(const std::string& path) {
  const auto pos = path.find_last_of('/');
  if (pos == std::string::npos) return ".";
  if (pos == 0) return "/";
  return path.substr(0, pos);
}

/// Durability for the *name*: after renaming into `dir`, the directory entry
/// itself must reach disk or a crash could roll the rename back.
void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY);
  AVGPIPE_CHECK(fd >= 0,
                "open dir '" << dir << "' failed: " << std::strerror(errno));
  const int rc = ::fsync(fd);
  const int err = errno;
  ::close(fd);
  AVGPIPE_CHECK(rc == 0,
                "fsync(" << dir << ") failed: " << std::strerror(err));
}

/// The write-temp → fsync → rename → fsync(dir) protocol, shared by
/// checkpoint files and the manifest. Every failure before the rename
/// closes the fd and unlinks the `.tmp`, so a failed commit leaves the
/// directory as it found it.
void atomic_write_file(const std::string& path, const void* data,
                       std::size_t size) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  AVGPIPE_CHECK(fd >= 0,
                "open '" << tmp << "' failed: " << std::strerror(errno));
  const auto fail = [&](const std::string& what) {
    const int err = errno;
    if (fd >= 0) ::close(fd);
    ::unlink(tmp.c_str());
    AVGPIPE_THROW(what << " failed: " << std::strerror(err));
  };
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, p + written, size - written);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) fail("write '" + tmp + "'");
    written += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) fail("fsync(" + tmp + ")");
  // close(2) releases the fd even when it reports an error: never retry it.
  const int closing = fd;
  fd = -1;
  if (::close(closing) != 0) fail("close '" + tmp + "'");
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    fail("rename '" + tmp + "' -> '" + path + "'");
  }
  fsync_dir(parent_dir(path));
}

/// Whole file into memory; empty-optional semantics via `error`.
bool read_file(const std::string& path, std::vector<std::uint8_t>* out,
               std::string* error) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    *error = "cannot open '" + path + "'";
    return false;
  }
  const auto size = in.tellg();
  in.seekg(0);
  out->resize(static_cast<std::size_t>(size));
  if (size > 0 &&
      !in.read(reinterpret_cast<char*>(out->data()), size)) {
    *error = "short read on '" + path + "'";
    return false;
  }
  return true;
}

/// Extend `crc`, which covers image[.., *end), over the framing bytes up to
/// `payload_begin` and then over the payload through its own CRC: payload
/// bytes are never read a second time for the whole-file CRC.
std::uint32_t fold_payload(std::uint32_t crc, const std::uint8_t* image,
                           std::size_t* end, std::size_t payload_begin,
                           std::uint32_t payload_crc, std::uint64_t len) {
  crc = crc32(image + *end, payload_begin - *end, crc);
  *end = payload_begin + len;
  return crc32_combine(crc, payload_crc, len);
}

struct ParsedFile {
  bool ok = false;
  std::string error;
  std::uint32_t version = 0;
  std::uint32_t file_crc = 0;  ///< CRC over the entire image
  std::vector<RecordInfo> records;
  std::vector<std::size_t> offsets;  ///< payload offsets, parallel to records
};

/// Record framing walk behind parse_image. Leaves `*crc_end` at the end of
/// the prefix `out->file_crc` covers.
void parse_records(const std::vector<std::uint8_t>& image, ParsedFile* out,
                   std::size_t* crc_end) {
  if (image.size() < kHeaderBytes) {
    out->error = "file too small for header";
    return;
  }
  ByteReader r(image);
  const std::uint8_t* magic = r.bytes(4);
  if (std::memcmp(magic, kMagic, 4) != 0) {
    out->error = "bad magic (not an avgpipe checkpoint)";
    return;
  }
  out->version = r.u32();
  if (out->version != kFormatVersion) {
    out->error = "unsupported format version " + std::to_string(out->version);
    return;
  }
  try {
    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      RecordInfo info;
      const std::uint16_t name_len = r.u16();
      const std::uint8_t* name = r.bytes(name_len);
      info.name.assign(reinterpret_cast<const char*>(name), name_len);
      info.size = r.u64();
      const std::uint8_t* payload = r.bytes(info.size);
      info.crc = r.u32();
      const auto offset = static_cast<std::size_t>(payload - image.data());
      const std::uint32_t payload_crc = crc32(payload, info.size);
      // CRC covers name + payload so a record can't be silently renamed.
      info.crc_ok = crc32_combine(crc32(name, name_len), payload_crc,
                                  info.size) == info.crc;
      out->file_crc = fold_payload(out->file_crc, image.data(), crc_end,
                                   offset, payload_crc, info.size);
      out->offsets.push_back(offset);
      out->records.push_back(std::move(info));
    }
    if (!r.done()) {
      out->error = std::to_string(r.remaining()) + " trailing bytes";
      return;
    }
  } catch (const Error& e) {
    out->error = e.what();
    return;
  }
  out->ok = true;
}

/// Lenient structural parse: stops (with `error`) at the first framing
/// failure, marks per-record CRC mismatches in `crc_ok` and keeps going.
/// Each payload is CRC'd once; its CRC yields both the record check and
/// that payload's share of the whole-file CRC.
ParsedFile parse_image(const std::vector<std::uint8_t>& image) {
  ParsedFile out;
  std::size_t crc_end = 0;
  parse_records(image, &out, &crc_end);
  out.file_crc = crc32(image.data() + crc_end, image.size() - crc_end,
                       out.file_crc);
  return out;
}

// -- minimal JSON helpers (same technique as fault/fault_plan.cpp) -----------

bool find_number(const std::string& text, const char* key, double* out) {
  const std::string needle = std::string("\"") + key + "\":";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) return false;
  const char* start = text.c_str() + pos + needle.size();
  char* end = nullptr;
  *out = std::strtod(start, &end);
  return end != start;
}

bool find_string(const std::string& text, const char* key, std::string* out) {
  const std::string needle = std::string("\"") + key + "\":\"";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) return false;
  const auto start = pos + needle.size();
  const auto close = text.find('"', start);
  if (close == std::string::npos) return false;
  *out = text.substr(start, close - start);
  return true;
}

std::vector<std::string> array_objects(const std::string& text,
                                       const char* key) {
  std::vector<std::string> objects;
  const std::string needle = std::string("\"") + key + "\"";
  auto pos = text.find(needle);
  if (pos == std::string::npos) return objects;
  pos = text.find('[', pos + needle.size());
  AVGPIPE_CHECK(pos != std::string::npos,
                "manifest: '" << key << "' is not an array");
  for (std::size_t i = pos + 1; i < text.size(); ++i) {
    if (text[i] == ']') break;
    if (text[i] != '{') continue;
    const auto close = text.find('}', i);
    AVGPIPE_CHECK(close != std::string::npos,
                  "manifest: unterminated object in '" << key << "'");
    objects.push_back(text.substr(i, close - i + 1));
    i = close;
  }
  return objects;
}

std::vector<ManifestEntry> read_manifest(const std::string& dir) {
  std::vector<ManifestEntry> out;
  std::vector<std::uint8_t> raw;
  std::string error;
  if (!read_file(dir + "/" + kManifestName, &raw, &error)) return out;
  const std::string text(raw.begin(), raw.end());
  std::string format;
  AVGPIPE_CHECK(find_string(text, "format", &format) && format == kManifestFormat,
                "manifest '" << dir << "/" << kManifestName
                             << "': unknown format");
  for (const auto& obj : array_objects(text, "entries")) {
    ManifestEntry e;
    double v = 0;
    AVGPIPE_CHECK(find_number(obj, "step", &v), "manifest entry missing step");
    e.step = static_cast<long>(v);
    AVGPIPE_CHECK(find_string(obj, "file", &e.file),
                  "manifest entry missing file");
    AVGPIPE_CHECK(find_number(obj, "bytes", &v),
                  "manifest entry missing bytes");
    e.bytes = static_cast<std::uint64_t>(v);
    AVGPIPE_CHECK(find_number(obj, "crc", &v), "manifest entry missing crc");
    e.crc = static_cast<std::uint32_t>(v);
    out.push_back(std::move(e));
  }
  return out;
}

void write_manifest(const std::string& dir,
                    const std::vector<ManifestEntry>& entries) {
  std::ostringstream os;
  // No space after the format colon: find_string matches `"key":"` exactly.
  os << "{\n  \"format\":\"" << kManifestFormat << "\",\n  \"entries\": [";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& e = entries[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"step\":" << e.step << ",\"file\":\"" << e.file
       << "\",\"bytes\":" << e.bytes << ",\"crc\":" << e.crc << "}";
  }
  os << "\n  ]\n}\n";
  const std::string text = os.str();
  atomic_write_file(dir + "/" + kManifestName, text.data(), text.size());
}

/// One submitted save: the state to encode, where it goes, and where the
/// commit span is recorded.
struct CommitJob {
  std::string key;  ///< canonical directory path
  std::string dir;
  std::size_t retain = 2;
  const TrainState* state = nullptr;  ///< `owned`, or a waiting caller's
  std::unique_ptr<TrainState> owned;  ///< handed back once committed
  ManifestEntry entry;  ///< step and file; the commit fills bytes and crc
  CommitTrace trace;
};

/// Encode, CRC, write, fsync, rename and fsync the directory, then append
/// to the manifest and prune. Writer thread only; throws on any failure.
void commit(CommitJob& job, CheckpointWriter& image) {
  const bool traced = job.trace.buffer != nullptr;
  const Seconds t0 = traced ? job.trace.tracer->wall_now() : 0;
  image.clear();
  encode(*job.state, image);
  const auto committed = image.commit(job.dir + "/" + job.entry.file);
  job.entry.bytes = committed.bytes;
  job.entry.crc = committed.crc;

  std::vector<ManifestEntry> current = read_manifest(job.dir);
  current.push_back(job.entry);
  // Prune: rewrite the manifest first, then unlink. A crash in between
  // orphans files (harmless) but can never dangle a manifest reference.
  std::vector<ManifestEntry> keep = current;
  if (keep.size() > job.retain) {
    keep.erase(keep.begin(), keep.begin() + static_cast<std::ptrdiff_t>(
                                                 keep.size() - job.retain));
  }
  write_manifest(job.dir, keep);
  for (std::size_t i = 0; i + job.retain < current.size(); ++i) {
    ::unlink((job.dir + "/" + current[i].file).c_str());
  }
  if (traced) {
    trace::TraceEvent ev;
    ev.kind = trace::EventKind::kCheckpointCommit;
    ev.batch = static_cast<std::int32_t>(job.entry.step);
    ev.bytes = job.entry.bytes;
    ev.value = static_cast<double>(job.entry.bytes);
    ev.t_begin = t0;
    ev.t_end = job.trace.tracer->wall_now();
    job.trace.buffer->record(ev);
  }
}

/// The process's one checkpoint commit thread, started by the first submit.
/// A directory (by canonical path) has at most one commit queued or
/// running. A landed commit leaves its state, and a failed one its error,
/// in the directory's slot for the next wait on that directory.
class CommitWriter {
 public:
  static CommitWriter& instance() {
    static CommitWriter writer;
    return writer;
  }

  ~CommitWriter() {
    std::thread thread;
    {
      common::MutexLock lock(mutex_);
      stop_ = true;  // the thread still drains the queue before it exits
      thread = std::move(thread_);
    }
    changed_.notify_all();
    if (thread.joinable()) thread.join();
  }

  /// Wait for `job.key`'s previous commit, check that the step advances
  /// past the manifest (which by then holds every step submitted before),
  /// and queue the job.
  void submit(CommitJob job) EXCLUDES(mutex_) {
    std::unique_ptr<TrainState> landed;  // freed after the lock is released
    common::MutexLock lock(mutex_);
    landed = await(job.key, lock, /*rethrow=*/true);
    const std::vector<ManifestEntry> current = read_manifest(job.dir);
    AVGPIPE_CHECK(current.empty() || job.entry.step > current.back().step,
                  "checkpoint step " << job.entry.step
                                     << " does not advance past the newest "
                                        "submitted step "
                                     << current.back().step << " in '"
                                     << job.dir << "'");
    slots_[job.key].busy = true;
    queue_.push_back(std::move(job));
    if (!thread_.joinable()) thread_ = std::thread([this] { run(); });
    changed_.notify_all();
  }

  /// Block until no commit for `key` is queued or running, and free the
  /// state it hands back; with `rethrow`, raise (and clear) the error a
  /// failed commit left for it.
  void wait(const std::string& key, bool rethrow) EXCLUDES(mutex_) {
    std::unique_ptr<TrainState> landed;  // freed after the lock is released
    common::MutexLock lock(mutex_);
    landed = await(key, lock, rethrow);
  }

 private:
  /// Per directory: whether a commit is queued or running, the state the
  /// last one committed, and the error a failed one left.
  struct Slot {
    bool busy = false;
    std::unique_ptr<TrainState> landed;
    std::string error;
  };

  CommitWriter() = default;

  /// Returns the landed state for the caller to free on its own thread, so
  /// its tensor storage goes back to the arena cache of the thread that
  /// captures the next state instead of piling up in the writer's.
  std::unique_ptr<TrainState> await(const std::string& key,
                                    common::MutexLock& lock, bool rethrow)
      REQUIRES(mutex_) {
    auto slot = slots_.find(key);
    while (slot != slots_.end() && slot->second.busy) {
      changed_.wait(mutex_, lock);
      slot = slots_.find(key);  // another waiter may have retired it
    }
    if (slot == slots_.end()) return nullptr;
    std::unique_ptr<TrainState> landed = std::move(slot->second.landed);
    if (slot->second.error.empty()) {
      slots_.erase(slot);
    } else if (rethrow) {
      const std::string error = std::move(slot->second.error);
      slots_.erase(slot);
      AVGPIPE_THROW(error);
    }
    return landed;
  }

  void run() EXCLUDES(mutex_) {
    // This thread is the only writer thread: the role is uniquely its own.
    common::RoleGuard writer(writer_role_);
    for (;;) {
      CommitJob job;
      {
        common::MutexLock lock(mutex_);
        while (queue_.empty() && !stop_) changed_.wait(mutex_, lock);
        if (queue_.empty()) return;
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      std::string error;
      try {
        commit(job, image_);
      } catch (const std::exception& e) {
        error = e.what();
      }
      {
        common::MutexLock lock(mutex_);
        Slot& slot = slots_[job.key];
        slot.busy = false;
        slot.landed = std::move(job.owned);
        if (!error.empty()) {
          slot.error = "checkpoint commit of step " +
                       std::to_string(job.entry.step) + " to '" + job.dir +
                       "' failed: " + error;
        }
      }
      changed_.notify_all();
    }
  }

  common::Mutex mutex_;
  /// Signalled when a job is queued, when one lands, and at shutdown.
  common::CondVar changed_;
  std::deque<CommitJob> queue_ GUARDED_BY(mutex_);
  std::map<std::string, Slot> slots_ GUARDED_BY(mutex_);
  bool stop_ GUARDED_BY(mutex_) = false;
  std::thread thread_ GUARDED_BY(mutex_);
  /// Held by the writer thread for its whole life.
  common::Role writer_role_;
  CheckpointWriter image_ GUARDED_BY(writer_role_);  ///< the reused file image
};

}  // namespace

// -- CheckpointWriter ---------------------------------------------------------

CheckpointWriter::CheckpointWriter() {
  image_.reserve(kHeaderBytes);
  image_.bytes(kMagic, 4);
  image_.u32(kFormatVersion);
  image_.u32(0);  // record count, patched as each record closes
  crc_end_ = image_.size();
}

void CheckpointWriter::clear() {
  image_.truncate(kHeaderBytes);
  image_.patch_u32(kCountOffset, 0);
  names_.clear();
  body_crc_ = 0;
  crc_end_ = kHeaderBytes;
}

void CheckpointWriter::reserve(std::size_t bytes) {
  image_.reserve(kHeaderBytes + bytes);
}

void CheckpointWriter::begin_record(const std::string& name) {
  AVGPIPE_CHECK(name.size() <= 0xFFFF, "record name too long");
  AVGPIPE_CHECK(std::find(names_.begin(), names_.end(), name) == names_.end(),
                "duplicate record '" << name << "'");
  names_.push_back(name);
  image_.u16(static_cast<std::uint16_t>(name.size()));
  image_.bytes(name.data(), name.size());
  image_.u64(0);  // payload size, patched by end_record
  payload_begin_ = image_.size();
  name_crc_ = crc32(name.data(), name.size());
}

void CheckpointWriter::end_record() {
  const std::size_t len = image_.size() - payload_begin_;
  image_.patch_u64(payload_begin_ - 8, len);
  const std::uint8_t* base = image_.buffer().data();
  const std::uint32_t payload_crc = crc32(base + payload_begin_, len);
  body_crc_ = fold_payload(body_crc_, base, &crc_end_, payload_begin_,
                           payload_crc, len);
  // CRC covers name + payload so a record can't be silently renamed.
  image_.u32(crc32_combine(name_crc_, payload_crc, len));
  image_.patch_u32(kCountOffset, static_cast<std::uint32_t>(names_.size()));
}

CheckpointWriter::Committed CheckpointWriter::commit(
    const std::string& path) const {
  const std::vector<std::uint8_t>& image = image_.buffer();
  atomic_write_file(path, image.data(), image.size());
  Committed c;
  c.bytes = image.size();
  // Header CRC (its count is final only now) ++ body CRC, where the body
  // CRC reuses every payload CRC computed as its record closed.
  const std::uint32_t body = crc32(image.data() + crc_end_,
                                   image.size() - crc_end_, body_crc_);
  c.crc = crc32_combine(crc32(image.data(), kHeaderBytes), body,
                        image.size() - kHeaderBytes);
  return c;
}

// -- CheckpointReader ---------------------------------------------------------

CheckpointReader CheckpointReader::open(const std::string& path) {
  std::vector<std::uint8_t> image;
  std::string error;
  AVGPIPE_CHECK(read_file(path, &image, &error), "checkpoint: " << error);
  return parse(std::move(image), path);
}

CheckpointReader CheckpointReader::parse(std::vector<std::uint8_t> image,
                                         const std::string& what,
                                         const std::uint32_t* expected_crc) {
  ParsedFile parsed = parse_image(image);
  AVGPIPE_CHECK(expected_crc == nullptr || parsed.file_crc == *expected_crc,
                "checkpoint '" << what << "': whole-file CRC mismatch");
  AVGPIPE_CHECK(parsed.ok, "checkpoint '" << what << "': " << parsed.error);
  for (const auto& rec : parsed.records) {
    AVGPIPE_CHECK(rec.crc_ok, "checkpoint '" << what << "': record '"
                                             << rec.name << "' CRC mismatch");
  }
  CheckpointReader reader;
  reader.image_ = std::move(image);
  reader.records_ = std::move(parsed.records);
  reader.offsets_ = std::move(parsed.offsets);
  return reader;
}

CheckpointReader::FileInfo CheckpointReader::inspect(const std::string& path) {
  FileInfo info;
  std::vector<std::uint8_t> image;
  if (!read_file(path, &image, &info.error)) return info;
  info.bytes = image.size();
  ParsedFile parsed = parse_image(image);
  info.file_crc = parsed.file_crc;
  info.version = parsed.version;
  info.records = std::move(parsed.records);
  info.error = parsed.error;
  info.ok = parsed.ok &&
            std::all_of(info.records.begin(), info.records.end(),
                        [](const RecordInfo& r) { return r.crc_ok; });
  if (parsed.ok && !info.ok) info.error = "record CRC mismatch";
  return info;
}

bool CheckpointReader::has(const std::string& name) const {
  for (const auto& rec : records_) {
    if (rec.name == name) return true;
  }
  return false;
}

std::span<const std::uint8_t> CheckpointReader::payload(
    const std::string& name) const {
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].name == name) {
      return {image_.data() + offsets_[i],
              static_cast<std::size_t>(records_[i].size)};
    }
  }
  AVGPIPE_THROW("checkpoint record '" << name << "' not found");
}

// -- CheckpointDir ------------------------------------------------------------

CheckpointDir::CheckpointDir(std::string dir, std::size_t retain)
    : dir_(std::move(dir)), retain_(retain) {
  AVGPIPE_CHECK(retain_ >= 2,
                "checkpoint retention must be >= 2 (a corrupted newest entry "
                "needs a fallback), got "
                    << retain_);
  if (::mkdir(dir_.c_str(), 0755) != 0) {
    AVGPIPE_CHECK(errno == EEXIST, "mkdir '" << dir_ << "' failed: "
                                             << std::strerror(errno));
  }
  std::error_code ec;
  key_ = std::filesystem::canonical(dir_, ec).string();
  AVGPIPE_CHECK(!ec, "cannot resolve '" << dir_ << "': " << ec.message());
}

std::vector<ManifestEntry> CheckpointDir::entries() const {
  wait();
  return read_manifest(dir_);
}

CheckpointDir::~CheckpointDir() { drain(key_); }

ManifestEntry CheckpointDir::submit(TrainState&& state, CommitTrace trace) {
  auto owned = std::make_unique<TrainState>(std::move(state));
  const TrainState& queued = *owned;
  return enqueue(queued, std::move(owned), trace);
}

ManifestEntry CheckpointDir::enqueue(const TrainState& state,
                                     std::unique_ptr<TrainState> owned,
                                     CommitTrace trace) {
  CommitJob job;
  job.key = key_;
  job.dir = dir_;
  job.retain = retain_;
  job.state = &state;
  job.owned = std::move(owned);
  job.entry.step = state.step;
  char name[64];
  std::snprintf(name, sizeof(name), "ckpt-%09ld.avgp", state.step);
  job.entry.file = name;
  job.trace = trace;
  const ManifestEntry entry = job.entry;
  CommitWriter::instance().submit(std::move(job));
  return entry;
}

void CheckpointDir::wait() const {
  CommitWriter::instance().wait(key_, /*rethrow=*/true);
}

ManifestEntry CheckpointDir::write(const TrainState& state) {
  enqueue(state, nullptr, {});
  wait();
  return read_manifest(dir_).back();
}

void drain(const std::string& key) noexcept {
  CommitWriter::instance().wait(key, /*rethrow=*/false);
}

CheckpointDir::LoadResult CheckpointDir::load_latest(TrainState* state) const {
  LoadResult result;
  const std::vector<ManifestEntry> all = entries();
  if (all.empty()) {
    result.error = "no committed checkpoints in '" + dir_ + "'";
    return result;
  }
  for (auto it = all.rbegin(); it != all.rend(); ++it) {
    const std::string path = dir_ + "/" + it->file;
    std::vector<std::uint8_t> image;
    std::string error;
    if (!read_file(path, &image, &error)) {
      result.error = error;
      ++result.fallbacks;
      continue;
    }
    if (image.size() != it->bytes) {
      result.error = "whole-file CRC/size mismatch on '" + it->file + "'";
      ++result.fallbacks;
      continue;
    }
    TrainState decoded;
    try {
      // Strict parse of the image already read (one CRC pass checks the
      // manifest's whole-file CRC and every record CRC) + decode under
      // try/catch: a payload that passes the CRCs but fails structural
      // validation still falls back.
      const CheckpointReader reader =
          CheckpointReader::parse(std::move(image), it->file, &it->crc);
      decoded = decode(reader);
    } catch (const Error& e) {
      result.error = e.what();
      ++result.fallbacks;
      continue;
    }
    // The whole-file CRC depends only on the record layout (each record
    // carries its own CRC), so a valid file of another step under this
    // entry's name passes it; the decoded step tells them apart.
    if (decoded.step != it->step) {
      result.error = "'" + it->file + "' holds step " +
                     std::to_string(decoded.step) + ", its manifest entry " +
                     "step " + std::to_string(it->step);
      ++result.fallbacks;
      continue;
    }
    *state = std::move(decoded);
    result.ok = true;
    result.step = it->step;
    result.file = it->file;
    return result;
  }
  return result;
}

// -- corruption injection -----------------------------------------------------

std::uint64_t file_size(const std::string& path) {
  struct stat st{};
  AVGPIPE_CHECK(::stat(path.c_str(), &st) == 0,
                "stat '" << path << "' failed: " << std::strerror(errno));
  return static_cast<std::uint64_t>(st.st_size);
}

void flip_bit(const std::string& path, std::uint64_t bit_index) {
  const std::uint64_t size = file_size(path);
  AVGPIPE_CHECK(size > 0, "cannot flip a bit in empty file '" << path << "'");
  const std::uint64_t bit = bit_index % (size * 8);
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  AVGPIPE_CHECK(f.good(), "cannot open '" << path << "' for bit flip");
  f.seekg(static_cast<std::streamoff>(bit / 8));
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ (1 << (bit % 8)));
  f.seekp(static_cast<std::streamoff>(bit / 8));
  f.write(&byte, 1);
  AVGPIPE_CHECK(f.good(), "bit flip on '" << path << "' failed");
}

void truncate_file(const std::string& path, std::uint64_t new_size) {
  AVGPIPE_CHECK(::truncate(path.c_str(), static_cast<off_t>(new_size)) == 0,
                "truncate '" << path << "' failed: " << std::strerror(errno));
}

}  // namespace avgpipe::ckpt
