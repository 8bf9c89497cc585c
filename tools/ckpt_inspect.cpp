/// \file ckpt_inspect.cpp
/// CLI for examining AvgPipe checkpoint directories and files — the
/// operator's view of the crash-consistency protocol, and CI's negative
/// control (a corrupted checkpoint must be *reported*, exit 2, never
/// decoded into garbage).
///
///   ckpt_inspect <dir>               # manifest + per-file record audit
///   ckpt_inspect <file.avgp>         # one file: records, CRCs, shapes
///   ckpt_inspect <path> --json       # machine-readable report
///
/// For a directory, every manifest entry is audited: the file must exist,
/// match the manifest's byte count and whole-file CRC, parse structurally,
/// and every record CRC must verify. Tensor-bearing records additionally
/// get a headers-only shape walk (no data is materialised).
///
/// Exit codes: 0 everything verifies, 2 any corruption or mismatch found,
/// 3 usage error.

#include <sys/stat.h>

#include <cstdint>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/format.hpp"
#include "common/check.hpp"

namespace {

using avgpipe::ckpt::ByteReader;
using avgpipe::ckpt::CheckpointDir;
using avgpipe::ckpt::CheckpointReader;
using avgpipe::ckpt::ManifestEntry;

[[noreturn]] void usage_error(const std::string& what) {
  std::cerr << "ckpt_inspect: " << what << "\n"
            << "usage: ckpt_inspect <checkpoint-dir | file.avgp> [--json]\n";
  std::exit(3);
}

bool is_directory(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

bool path_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

/// TrainState's policy_kind byte, named without a core dependency.
const char* policy_kind_name(std::uint8_t kind) {
  switch (kind) {
    case 0: return "elastic";
    case 1: return "bsp";
    case 2: return "bmuf";
    case 3: return "xpipe";
    default: return "unknown";
  }
}

/// TrainState's sync_codec byte (tensor::Codec), likewise core-free.
const char* sync_codec_name(std::uint8_t codec) {
  switch (codec) {
    case 0: return "off";
    case 1: return "fp16";
    case 2: return "int8";
    default: return "unknown";
  }
}

/// Headers-only walk of one serialized tensor: returns "[d0xd1x...]" and
/// skips the payload without materialising it. Throws on malformed headers.
std::string walk_tensor(ByteReader& r) {
  const std::uint32_t ndim = r.u32();
  AVGPIPE_CHECK(ndim <= 8, "implausible tensor rank " << ndim);
  std::uint64_t numel = 1;
  std::ostringstream os;
  os << '[';
  for (std::uint32_t j = 0; j < ndim; ++j) {
    const std::uint64_t d = r.u64();
    AVGPIPE_CHECK(d > 0 && d <= (1ull << 32), "implausible dim " << d);
    numel *= d;
    os << (j ? "x" : "") << d;
  }
  os << ']';
  r.bytes(numel * sizeof(double));  // bounds-checked skip
  return os.str();
}

std::vector<std::string> walk_tensor_list(ByteReader& r) {
  std::vector<std::string> shapes;
  const std::uint32_t n = r.u32();
  shapes.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) shapes.push_back(walk_tensor(r));
  return shapes;
}

void skip_optimizer(ByteReader& r, std::string* name) {
  *name = r.str();
  r.u64();  // steps
  const std::uint32_t scalars = r.u32();
  for (std::uint32_t i = 0; i < scalars; ++i) r.f64();
  walk_tensor_list(r);  // slots
}

std::string join(const std::vector<std::string>& parts) {
  std::ostringstream os;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    os << (i ? " " : "") << parts[i];
  }
  return os.str();
}

/// Human summary of one record's decoded content ("" when the payload does
/// not decode — the caller treats that as corruption the CRC missed).
std::string describe_record(const std::string& name,
                            std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  std::ostringstream os;
  if (name == "meta") {
    const std::int64_t step = r.i64();
    const std::uint8_t kind = r.u8();
    const double alpha = r.f64();
    const std::uint32_t pipelines = r.u32();
    r.u32();  // rng count
    os << "step " << step << ", policy " << policy_kind_name(kind)
       << ", alpha " << alpha << ", " << pipelines << " pipelines";
  } else if (name == "reference" || name == "policy" || name == "broadcast") {
    const auto shapes = walk_tensor_list(r);
    os << shapes.size() << " tensors";
    if (!shapes.empty()) os << ": " << join(shapes);
  } else if (name.rfind("pipeline.", 0) == 0) {
    const bool alive = r.u8() != 0;
    const auto params = walk_tensor_list(r);
    const std::uint32_t stages = r.u32();
    std::vector<std::string> optimizers;
    for (std::uint32_t s = 0; s < stages; ++s) {
      std::string opt;
      skip_optimizer(r, &opt);
      walk_tensor_list(r);  // pred_delta
      r.u8();               // pred_have_delta
      optimizers.push_back(opt);
    }
    os << (alive ? "alive" : "dead") << ", " << params.size()
       << " params, " << stages << " stages";
    if (!optimizers.empty()) os << " (" << join(optimizers) << ")";
  } else if (name == "residual.broadcast" || name.rfind("residual.", 0) == 0) {
    // Sync-compression error-feedback residuals: codec byte + tensor list.
    const std::uint8_t codec = r.u8();
    const auto shapes = walk_tensor_list(r);
    os << "codec " << sync_codec_name(codec) << ", " << shapes.size()
       << " residual tensors";
    if (!shapes.empty()) os << ": " << join(shapes);
  } else if (name == "rng") {
    const std::uint32_t n = r.u32();
    std::vector<std::string> names;
    for (std::uint32_t i = 0; i < n; ++i) {
      names.push_back(r.str());
      r.str();  // engine snapshot
    }
    os << n << " streams";
    if (!names.empty()) os << ": " << join(names);
  } else {
    os << payload.size() << " bytes (unknown record)";
    return os.str();  // no expect_done: format unknown by definition
  }
  r.expect_done(name.c_str());
  return os.str();
}

std::string json_escape(const std::string& s) {
  std::ostringstream os;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (c == '\n') {
      os << "\\n";
    } else {
      os << c;
    }
  }
  return os.str();
}

struct RecordReport {
  std::string name;
  std::uint64_t size = 0;
  std::uint32_t crc = 0;
  bool crc_ok = false;
  std::string detail;  ///< decoded summary, or the decode error
  bool decoded = false;
};

struct FileReport {
  std::string path;
  bool ok = false;           ///< structure + every CRC + every decode
  std::string error;         ///< first structural failure
  std::uint32_t version = 0;
  std::uint64_t bytes = 0;
  std::uint32_t file_crc = 0;
  std::vector<RecordReport> records;
};

FileReport audit_file(const std::string& path) {
  FileReport report;
  report.path = path;
  const CheckpointReader::FileInfo info = CheckpointReader::inspect(path);
  report.ok = info.ok;
  report.error = info.error;
  report.version = info.version;
  report.bytes = info.bytes;
  report.file_crc = info.file_crc;
  for (const auto& rec : info.records) {
    RecordReport r;
    r.name = rec.name;
    r.size = rec.size;
    r.crc = rec.crc;
    r.crc_ok = rec.crc_ok;
    report.records.push_back(std::move(r));
    if (!rec.crc_ok) report.ok = false;
  }
  if (!report.ok) return report;
  // Structure and CRCs verify: decode each record's content for the shape/
  // summary columns. A decode failure here means a payload the CRC could not
  // protect against (e.g. a version-skewed writer) — still corruption.
  try {
    const CheckpointReader reader = CheckpointReader::open(path);
    for (auto& rec : report.records) {
      try {
        rec.detail = describe_record(rec.name, reader.payload(rec.name));
        rec.decoded = true;
      } catch (const std::exception& e) {
        rec.detail = e.what();
        report.ok = false;
        if (report.error.empty()) {
          report.error = "record '" + rec.name + "' does not decode";
        }
      }
    }
  } catch (const std::exception& e) {
    report.ok = false;
    report.error = e.what();
  }
  return report;
}

void print_file_text(const FileReport& f, const std::string& indent) {
  std::cout << indent << f.path << ": "
            << (f.ok ? "OK" : "CORRUPT") << ", version " << f.version
            << ", " << f.bytes << " bytes, file crc 0x" << std::hex
            << f.file_crc << std::dec << "\n";
  if (!f.error.empty()) std::cout << indent << "  error: " << f.error << "\n";
  for (const auto& r : f.records) {
    std::cout << indent << "  " << r.name << "  " << r.size
              << " bytes  crc 0x" << std::hex << r.crc << std::dec
              << (r.crc_ok ? "" : "  CRC MISMATCH");
    if (!r.detail.empty()) std::cout << "  " << r.detail;
    std::cout << "\n";
  }
}

void print_file_json(std::ostream& os, const FileReport& f) {
  os << "{\"path\":\"" << json_escape(f.path) << "\",\"ok\":"
     << (f.ok ? "true" : "false") << ",\"version\":" << f.version
     << ",\"bytes\":" << f.bytes << ",\"file_crc\":" << f.file_crc;
  if (!f.error.empty()) os << ",\"error\":\"" << json_escape(f.error) << "\"";
  os << ",\"records\":[";
  for (std::size_t i = 0; i < f.records.size(); ++i) {
    const auto& r = f.records[i];
    os << (i ? "," : "") << "{\"name\":\"" << json_escape(r.name)
       << "\",\"size\":" << r.size << ",\"crc\":" << r.crc
       << ",\"crc_ok\":" << (r.crc_ok ? "true" : "false");
    if (r.decoded) os << ",\"summary\":\"" << json_escape(r.detail) << "\"";
    os << "}";
  }
  os << "]}";
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--help" || arg == "-h") {
      usage_error("help");
    } else if (!arg.empty() && arg[0] == '-') {
      usage_error("unknown flag: " + arg);
    } else if (path.empty()) {
      path = arg;
    } else {
      usage_error("multiple paths given");
    }
  }
  if (path.empty()) usage_error("missing path");
  if (!path_exists(path)) usage_error("no such path: " + path);

  try {
    if (!is_directory(path)) {
      const FileReport f = audit_file(path);
      if (json) {
        print_file_json(std::cout, f);
        std::cout << "\n";
      } else {
        print_file_text(f, "");
      }
      return f.ok ? 0 : 2;
    }

    const CheckpointDir dir(path);
    const std::vector<ManifestEntry> entries = dir.entries();
    bool all_ok = true;
    std::vector<FileReport> reports;
    std::vector<std::string> manifest_errors;
    for (const auto& e : entries) {
      const std::string file_path = path + "/" + e.file;
      std::string mismatch;
      if (!path_exists(file_path)) {
        mismatch = "manifest names a missing file";
      }
      FileReport f = mismatch.empty() ? audit_file(file_path) : FileReport{};
      if (mismatch.empty()) {
        if (f.bytes != e.bytes) {
          mismatch = "size mismatch vs manifest";
        } else if (f.file_crc != e.crc) {
          mismatch = "whole-file CRC mismatch vs manifest";
        }
      }
      if (!mismatch.empty()) {
        f.path = file_path;
        f.ok = false;
        if (f.error.empty()) f.error = mismatch;
      }
      all_ok = all_ok && f.ok;
      manifest_errors.push_back(mismatch);
      reports.push_back(std::move(f));
    }

    if (json) {
      std::cout << "{\"dir\":\"" << json_escape(path) << "\",\"ok\":"
                << (all_ok ? "true" : "false") << ",\"entries\":[";
      for (std::size_t i = 0; i < entries.size(); ++i) {
        std::cout << (i ? "," : "") << "{\"step\":" << entries[i].step
                  << ",\"file\":\"" << json_escape(entries[i].file)
                  << "\",\"bytes\":" << entries[i].bytes
                  << ",\"crc\":" << entries[i].crc << ",\"audit\":";
        print_file_json(std::cout, reports[i]);
        std::cout << "}";
      }
      std::cout << "]}\n";
    } else {
      std::cout << "checkpoint dir " << path << ": " << entries.size()
                << " committed entries, "
                << (all_ok ? "all verify" : "CORRUPTION FOUND") << "\n";
      for (std::size_t i = 0; i < entries.size(); ++i) {
        std::cout << "step " << entries[i].step << " -> " << entries[i].file
                  << "\n";
        print_file_text(reports[i], "  ");
      }
    }
    return all_ok ? 0 : 2;
  } catch (const std::exception& e) {
    // A manifest that cannot even be parsed is corruption, not usage error.
    std::cerr << "ckpt_inspect: " << e.what() << "\n";
    return 2;
  }
}
