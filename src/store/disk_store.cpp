#include "store/disk_store.hpp"

#if defined(_WIN32)
#include <process.h>
#else
#include <fcntl.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "support/check.hpp"

namespace rdv::store {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[4] = {'R', 'D', 'V', 'S'};

std::size_t kind_index(Kind kind) noexcept {
  RDV_CHECK_MSG(static_cast<std::size_t>(kind) < kKindSlots,
                "artifact kind out of range");
  return static_cast<std::size_t>(kind);
}

/// Whole-file read; nullopt when the file cannot be opened.
std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) return std::nullopt;
  return std::move(buffer).str();
}

using FailStage = std::function<bool(const char*)>;

bool stage_fails(const FailStage& fail, const char* stage) {
  return fail && fail(stage);
}

/// Writes `bytes` to `path` and forces the DATA to the device before
/// returning true — the rename that follows only orders metadata, so
/// skipping the fsync could publish a zero-length or partial final
/// file after a crash. Any stage failing (or being injected as a
/// failure by the test hook) leaves the caller free to unlink the temp
/// and report a write failure; the rename must not happen.
bool write_durable(const std::string& path, const std::string& bytes,
                   const FailStage& fail) {
#if defined(_WIN32)
  // No fsync here: degrade to flush-then-rename (crash-safety weakens
  // to "torn files are caught by the checksum on load"). The stage
  // sequence stays open;write;sync;close so the injection hook (and
  // the store_test pinning it) behaves identically.
  bool ok;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out || stage_fails(fail, "open")) return false;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ok = out.good() && !stage_fails(fail, "write");
    out.flush();
    if (ok && (!out.good() || stage_fails(fail, "sync"))) ok = false;
  }
  return ok && !stage_fails(fail, "close");
#else
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0 || stage_fails(fail, "open")) {
    if (fd >= 0) ::close(fd);
    return false;
  }
  bool ok = true;
  std::size_t written = 0;
  while (ok && written < bytes.size()) {
    const ::ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      ok = false;
    } else {
      written += static_cast<std::size_t>(n);
    }
  }
  if (stage_fails(fail, "write")) ok = false;
  if (ok && (::fsync(fd) != 0 || stage_fails(fail, "sync"))) ok = false;
  if (::close(fd) != 0 || stage_fails(fail, "close")) ok = false;
  return ok;
#endif
}

long process_id() {
#if defined(_WIN32)
  return static_cast<long>(::_getpid());
#else
  return static_cast<long>(::getpid());
#endif
}

}  // namespace

DiskStore::DiskStore(DiskConfig config) : config_(std::move(config)) {
  // Best-effort directory creation: an unusable root degrades every
  // load to a miss and every save to a counted failure, it never
  // throws out of experiment setup.
  std::error_code ec;
  for (const Kind kind : kKinds) {
    fs::create_directories(fs::path(config_.root) / kind_name(kind), ec);
  }
}

std::string DiskStore::path_for(Kind kind, const std::string& key) const {
  return (fs::path(config_.root) / kind_name(kind) / (key + ".bin"))
      .string();
}

std::optional<std::string> DiskStore::load(Kind kind,
                                           const std::string& key) {
  AtomicStats& s = stats_[kind_index(kind)];
  std::optional<std::string> raw = read_file(path_for(kind, key));
  if (!raw.has_value()) {
    s.misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  s.bytes_read.fetch_add(raw->size(), std::memory_order_relaxed);
  try {
    if (raw->size() < 4 || !std::equal(kMagic, kMagic + 4, raw->data())) {
      throw CodecError("bad magic");
    }
    Decoder body(std::string_view(*raw).substr(4));
    const std::uint32_t version = body.u32();
    const std::string salt = body.str();
    if (version != kFormatVersion || salt != config_.build_salt) {
      s.version_mismatch.fetch_add(1, std::memory_order_relaxed);
      s.misses.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    const std::string stored_kind = body.str();
    const std::string stored_key = body.str();
    if (stored_kind != kind_name(kind) || stored_key != key) {
      throw CodecError("foreign key echo");
    }
    const std::uint64_t payload_size = body.u64();
    const std::uint64_t payload_sum = body.u64();
    if (payload_size != body.remaining()) {
      throw CodecError("payload size mismatch");
    }
    std::string payload = body.rest();
    if (checksum(payload) != payload_sum) {
      throw CodecError("payload checksum mismatch");
    }
    s.hits.fetch_add(1, std::memory_order_relaxed);
    return payload;
  } catch (const CodecError&) {
    s.corrupt.fetch_add(1, std::memory_order_relaxed);
    s.misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
}

bool DiskStore::save(Kind kind, const std::string& key,
                     std::string_view payload) {
  AtomicStats& s = stats_[kind_index(kind)];
  if (config_.read_only) return false;

  Encoder e;
  // Header; the magic goes in raw so a hexdump identifies store files.
  std::string bytes(kMagic, 4);
  e.u32(kFormatVersion);
  e.str(config_.build_salt);
  e.str(kind_name(kind));
  e.str(key);
  e.u64(payload.size());
  e.u64(checksum(payload));
  bytes += e.take();
  bytes.append(payload.data(), payload.size());

  const std::string final_path = path_for(kind, key);
  // Unique temp in the SAME directory (rename must not cross devices):
  // pid + store identity + per-store sequence keeps concurrent writers
  // — threads, several stores on one dir, and other processes — from
  // colliding on the temp name.
  std::ostringstream temp_name;
  temp_name << final_path << ".tmp." << process_id() << "."
            << reinterpret_cast<std::uintptr_t>(this) << "."
            << temp_seq_.fetch_add(1, std::memory_order_relaxed);
  const std::string temp_path = temp_name.str();
  if (!write_durable(temp_path, bytes, config_.fail_stage)) {
    s.write_failures.fetch_add(1, std::memory_order_relaxed);
    std::error_code ec;
    fs::remove(temp_path, ec);
    return false;
  }
  std::error_code ec;
  fs::rename(temp_path, final_path, ec);
  if (ec) {
    s.write_failures.fetch_add(1, std::memory_order_relaxed);
    fs::remove(temp_path, ec);
    return false;
  }
  s.writes.fetch_add(1, std::memory_order_relaxed);
  s.bytes_written.fetch_add(bytes.size(), std::memory_order_relaxed);
  return true;
}

DiskStats DiskStore::stats(Kind kind) const {
  const AtomicStats& s = stats_[kind_index(kind)];
  DiskStats out;
  out.hits = s.hits.load(std::memory_order_relaxed);
  out.misses = s.misses.load(std::memory_order_relaxed);
  out.corrupt = s.corrupt.load(std::memory_order_relaxed);
  out.version_mismatch = s.version_mismatch.load(std::memory_order_relaxed);
  out.writes = s.writes.load(std::memory_order_relaxed);
  out.write_failures = s.write_failures.load(std::memory_order_relaxed);
  out.bytes = s.bytes_read.load(std::memory_order_relaxed);
  out.bytes_written = s.bytes_written.load(std::memory_order_relaxed);
  return out;
}

DiskStats DiskStore::total_stats() const {
  DiskStats total;
  for (const Kind kind : kKinds) {
    const DiskStats s = stats(kind);
    static_cast<obs::TierStats&>(total) += s;
    total.corrupt += s.corrupt;
    total.version_mismatch += s.version_mismatch;
    total.writes += s.writes;
    total.write_failures += s.write_failures;
    total.bytes_written += s.bytes_written;
  }
  return total;
}

}  // namespace rdv::store
