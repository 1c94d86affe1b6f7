#include "serve/wal.h"

#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "core/checkpoint.h"
#include "obs/obs.h"

namespace cdbp::serve {

namespace {

constexpr char kWalMagic[8] = {'C', 'D', 'B', 'P', 'W', 'A', 'L', '2'};
// Segment header: magic + u64 base_seq + u32 crc32(base_seq bytes).
constexpr std::size_t kSegmentHeaderBytes = 8 + 8 + 4;
constexpr std::uint8_t kRecordRetiredOffer = 1;
constexpr std::uint8_t kRecordOffer = 2;
// Offer payload before the tenant bytes: type + seq + stream_index +
// 3 doubles + bin + tenant_len.
constexpr std::size_t kOfferFixedPayload = 1 + 8 + 8 + 8 + 8 + 8 + 8 + 8;
// Envelope sanity bound: no legitimate record is this large, so a length
// beyond it is torn-tail garbage, not a future record type.
constexpr std::uint32_t kMaxFramePayload = 1u << 20;

// Namespace-scope references: no initialization-guard load per append.
obs::Counter& g_appends =
    obs::MetricsRegistry::global().counter("wal.appends");
obs::Counter& g_fsyncs = obs::MetricsRegistry::global().counter("wal.fsyncs");
obs::Counter& g_unknown_frames =
    obs::MetricsRegistry::global().counter("wal.unknown_frames");
obs::Histogram& g_fsync_us =
    obs::MetricsRegistry::global().histogram("wal.fsync_us");

std::uint32_t read_u32_le(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

// io::sync_file (EINTR-retrying) wrapped with the fsync metrics.
void fsync_file(io::File& f, const std::string& path) {
  const auto t0 = std::chrono::steady_clock::now();
  io::sync_file(f, path);
  const auto dt = std::chrono::steady_clock::now() - t0;
  g_fsyncs.add();
  g_fsync_us.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(dt).count()));
}

}  // namespace

std::string to_string(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNone:
      return "none";
    case FsyncPolicy::kEvery:
      return "every";
  }
  return "?";
}

FsyncPolicy parse_fsync_policy(const std::string& s) {
  if (s == "none") return FsyncPolicy::kNone;
  if (s == "every") return FsyncPolicy::kEvery;
  throw std::invalid_argument("fsync policy must be none|every, got '" + s +
                              "'");
}

void fsync_parent_dir(const std::string& path, io::Env* env) {
  io::sync_parent_dir(io::env_or_posix(env), path);
}

WalWriter::WalWriter(std::string path, FsyncPolicy policy, bool truncate,
                     std::uint64_t base_seq, io::Env* env)
    : path_(std::move(path)), policy_(policy), env_(&io::env_or_posix(env)) {
  file_ = io::open_file(*env_, path_,
                        truncate ? io::OpenMode::kTruncate
                                 : io::OpenMode::kAppend);
  int err = 0;
  const std::int64_t size = file_->size(err);
  if (size < 0)
    throw std::runtime_error("wal: stat failed for '" + path_ + "'");
  bytes_ = static_cast<std::uint64_t>(size);
  if (size == 0) {
    StateWriter header;
    header.u64(base_seq);
    header.u32(crc32(header.buffer().data(), header.size()));
    io::write_all(*file_, kWalMagic, sizeof(kWalMagic), path_);
    io::write_all(*file_, header.buffer().data(), header.size(), path_);
    bytes_ = kSegmentHeaderBytes;
    // An empty-but-created log must itself survive power loss under the
    // durable policy, or recovery after a crash-before-first-append
    // would see "missing file" where the writer saw "created".
    if (policy_ != FsyncPolicy::kNone) {
      fsync_file(*file_, path_);
      io::sync_parent_dir(*env_, path_);
    }
  }
  synced_bytes_ = bytes_;
}

WalWriter::~WalWriter() {
  try {
    close();
  } catch (...) {
    // Destructor path: the process is going away; close() throwing on a
    // final fsync would terminate it. Callers that need the durability
    // guarantee call close() explicitly.
  }
}

void WalWriter::write_frame(const WalRecord& rec) {
  if (!file_) throw std::logic_error("wal: append after close");
  StateWriter payload;
  payload.u8(kRecordOffer);
  payload.u64(rec.seq);
  payload.u64(rec.stream_index);
  payload.f64(rec.arrival);
  payload.f64(rec.departure);
  payload.f64(rec.size);
  payload.i64(rec.bin);
  payload.str(rec.tenant);

  StateWriter frame;
  frame.u32(static_cast<std::uint32_t>(payload.size()));
  frame.u32(crc32(payload.buffer().data(), payload.size()));
  for (const char c : payload.buffer()) frame.u8(static_cast<std::uint8_t>(c));

  // On a hard write failure (e.g. ENOSPC after a short write) this throws
  // with part of the frame on disk — a torn tail that recovery truncates.
  io::write_all(*file_, frame.buffer().data(), frame.size(), path_);
  bytes_ += frame.size();
  ++appended_;
  ++unsynced_;
  g_appends.add();
}

void WalWriter::append(const WalRecord& rec) {
  write_frame(rec);
  if (policy_ == FsyncPolicy::kEvery) sync();
}

void WalWriter::append_nosync(const WalRecord& rec) { write_frame(rec); }

void WalWriter::sync() {
  if (!file_) return;
  fsync_file(*file_, path_);
  synced_bytes_ = bytes_;
  unsynced_ = 0;
}

void WalWriter::close() {
  if (!file_) return;
  if (policy_ != FsyncPolicy::kNone && unsynced_ > 0) sync();
  int err = 0;
  const int rc = file_->close(err);
  file_.reset();
  if (rc != 0)
    throw std::runtime_error("wal: close failed for '" + path_ +
                             "': " + std::strerror(err));
}

WalReadResult read_wal(const std::string& path, io::Env* env) {
  WalReadResult out;
  std::string data;
  if (!io::read_file(io::env_or_posix(env), path, data))
    return out;  // missing file: empty log, not an error
  out.exists = true;

  if (data.size() < kSegmentHeaderBytes ||
      std::memcmp(data.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    out.torn = true;
    out.tail_error = "missing or corrupt WAL header";
    return out;
  }
  StateReader header(std::string_view(data).substr(sizeof(kWalMagic)));
  const std::uint64_t base_seq = header.u64();
  if (crc32(data.data() + sizeof(kWalMagic), 8) != header.u32()) {
    out.torn = true;
    out.tail_error = "corrupt segment header";
    return out;
  }
  out.base_seq = base_seq;

  std::size_t pos = kSegmentHeaderBytes;
  out.valid_bytes = pos;
  while (pos < data.size()) {
    if (data.size() - pos < 8) {
      out.torn = true;
      out.tail_error = "partial frame header";
      break;
    }
    const auto* p = reinterpret_cast<const unsigned char*>(data.data() + pos);
    const std::uint32_t len = read_u32_le(p);
    const std::uint32_t crc = read_u32_le(p + 4);
    if (len == 0 || len > kMaxFramePayload) {
      out.torn = true;
      out.tail_error = "bad frame length";
      break;
    }
    if (data.size() - pos - 8 < len) {
      out.torn = true;
      out.tail_error = "partial frame payload";
      break;
    }
    const char* payload = data.data() + pos + 8;
    if (crc32(payload, len) != crc) {
      out.torn = true;
      out.tail_error = "frame CRC mismatch";
      break;
    }
    const auto type = static_cast<std::uint8_t>(payload[0]);
    if (type == kRecordRetiredOffer) {
      // An intact frame is an offer that was acked. Skipping it, or
      // truncating it as torn tail, would silently lose that decision.
      std::string what = "wal: retired type-1 offer frame at byte ";
      what.append(std::to_string(pos))
          .append(" of '")
          .append(path)
          .append("'; this log predates the current frame format");
      throw std::runtime_error(what);
    }
    if (type == kRecordOffer) {
      // The length-prefixed tenant must consume the rest of the payload.
      if (len < kOfferFixedPayload) {
        out.torn = true;
        out.tail_error = "bad offer frame length";
        break;
      }
      StateReader r(std::string_view(payload + 1, len - 1));
      WalRecord rec;
      rec.seq = r.u64();
      rec.stream_index = r.u64();
      rec.arrival = r.f64();
      rec.departure = r.f64();
      rec.size = r.f64();
      rec.bin = r.i64();
      const std::uint64_t tenant_len = r.u64();
      if (tenant_len != r.remaining()) {
        out.torn = true;
        out.tail_error = "bad offer frame length";
        break;
      }
      rec.tenant.assign(payload + kOfferFixedPayload, tenant_len);
      out.records.push_back(std::move(rec));
    } else {
      // Envelope-valid frame of a type this reader does not know: a newer
      // writer's record kind. Skip it — the CRC already proved it is not
      // torn-tail garbage.
      ++out.unknown_records;
      g_unknown_frames.add();
    }
    // Counted only once the frame is fully accepted (an offer frame with a
    // bad length is torn tail, not a frame of that type).
    ++out.frame_type_counts[type];
    pos += 8 + len;
    out.valid_bytes = pos;
  }
  return out;
}

void truncate_wal(const std::string& path, std::uint64_t size, io::Env* env) {
  io::Env& e = io::env_or_posix(env);
  std::unique_ptr<io::File> f = io::open_file(e, path, io::OpenMode::kWrite);
  io::truncate_file(*f, size, path);
  // The new length is inode metadata: fsync the file so the repair itself
  // survives power loss, then the parent so a fresh directory entry does.
  io::sync_file(*f, path);
  int err = 0;
  if (f->close(err) != 0)
    throw std::runtime_error("wal: close failed for '" + path +
                             "': " + std::strerror(err));
  io::sync_parent_dir(e, path);
}

}  // namespace cdbp::serve
