#include "serve/wal.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "scratch_path.h"

namespace cdbp::serve {
namespace {

namespace fs = std::filesystem;

// Segment header: "CDBPWAL2" + u64 base_seq + u32 crc.
constexpr std::uint64_t kHeaderBytes = 20;
// A tenant-less offer frame: 8 envelope + 57 payload (tenant_len 0).
constexpr std::uint64_t kFrameBytes = 65;

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testutil::test_scratch_dir("cdbp_wal_test_");
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

std::vector<WalRecord> sample_records(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<WalRecord> out;
  Time t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    WalRecord rec;
    rec.seq = i;
    rec.stream_index = i + 1;
    t += unit(rng);
    rec.arrival = t;
    rec.departure = t + 1.0 + unit(rng) * 7.0;
    rec.size = 0.01 + 0.5 * unit(rng);
    rec.bin = static_cast<BinId>(rng() % 5);
    out.push_back(rec);
  }
  return out;
}

void write_records(const std::string& file,
                   const std::vector<WalRecord>& records,
                   FsyncPolicy policy = FsyncPolicy::kNone) {
  WalWriter w(file, policy, /*truncate=*/true);
  for (const WalRecord& rec : records) w.append(rec);
  w.close();
}

TEST_F(WalTest, RoundTripsRecordsBitExactly) {
  const std::string file = path("a.wal");
  const std::vector<WalRecord> records = sample_records(25, 7);
  write_records(file, records, FsyncPolicy::kEvery);

  const WalReadResult r = read_wal(file);
  EXPECT_TRUE(r.exists);
  EXPECT_FALSE(r.torn);
  ASSERT_EQ(r.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i)
    EXPECT_EQ(r.records[i], records[i]) << "record " << i;
  EXPECT_EQ(r.valid_bytes, fs::file_size(file));
}

TEST_F(WalTest, MissingFileIsEmptyNotTorn) {
  const WalReadResult r = read_wal(path("nope.wal"));
  EXPECT_FALSE(r.exists);
  EXPECT_FALSE(r.torn);
  EXPECT_TRUE(r.records.empty());
}

TEST_F(WalTest, CorruptHeaderIsTornAtZero) {
  const std::string file = path("bad.wal");
  std::ofstream(file, std::ios::binary) << "NOTAWAL!garbage";
  const WalReadResult r = read_wal(file);
  EXPECT_TRUE(r.exists);
  EXPECT_TRUE(r.torn);
  EXPECT_EQ(r.valid_bytes, 0u);
  EXPECT_TRUE(r.records.empty());
}

// The satellite's torn-write property: truncate the file at EVERY byte
// offset inside the last frame; the reader must always return exactly the
// intact prefix and flag the tail, and never crash or return garbage.
TEST_F(WalTest, TornWriteAtEveryByteOffsetOfLastFrame) {
  const std::string file = path("full.wal");
  const std::vector<WalRecord> records = sample_records(6, 42);
  write_records(file, records);
  const std::uint64_t full = fs::file_size(file);

  // Locate the last frame's start: re-reading after truncating to one
  // record less gives its boundary.
  const WalReadResult whole = read_wal(file);
  ASSERT_FALSE(whole.torn);
  ASSERT_EQ(whole.records.size(), records.size());
  ASSERT_EQ(full, kHeaderBytes + records.size() * kFrameBytes);
  const std::uint64_t last_start = full - kFrameBytes;

  for (std::uint64_t cut = last_start; cut < full; ++cut) {
    const std::string torn_file = path("torn.wal");
    fs::copy_file(file, torn_file, fs::copy_options::overwrite_existing);
    truncate_wal(torn_file, cut);

    const WalReadResult r = read_wal(torn_file);
    EXPECT_TRUE(r.exists);
    ASSERT_EQ(r.records.size(), records.size() - 1) << "cut at " << cut;
    EXPECT_EQ(r.valid_bytes, last_start) << "cut at " << cut;
    if (cut == last_start) {
      // Clean frame boundary: nothing dangles.
      EXPECT_FALSE(r.torn);
    } else {
      EXPECT_TRUE(r.torn) << "cut at " << cut;
      EXPECT_FALSE(r.tail_error.empty());
    }
    for (std::size_t i = 0; i + 1 < records.size(); ++i)
      EXPECT_EQ(r.records[i], records[i]);

    // Repair + append continues the log where the intact prefix ended.
    truncate_wal(torn_file, r.valid_bytes);
    WalWriter w(torn_file, FsyncPolicy::kNone, /*truncate=*/false);
    w.append(records.back());
    w.close();
    const WalReadResult healed = read_wal(torn_file);
    EXPECT_FALSE(healed.torn);
    ASSERT_EQ(healed.records.size(), records.size());
    EXPECT_EQ(healed.records.back(), records.back());
  }
}

TEST_F(WalTest, PayloadCorruptionStopsAtBadFrame) {
  const std::string file = path("crc.wal");
  const std::vector<WalRecord> records = sample_records(5, 9);
  write_records(file, records);

  // Flip one byte inside record 2's payload (frames are fixed-size).
  ASSERT_EQ(fs::file_size(file), kHeaderBytes + 5 * kFrameBytes);
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(static_cast<std::streamoff>(kHeaderBytes + 2 * kFrameBytes + 8 + 3));
  f.put('\xFF');
  f.close();

  const WalReadResult r = read_wal(file);
  EXPECT_TRUE(r.torn);
  EXPECT_EQ(r.records.size(), 2u);
  EXPECT_NE(r.tail_error.find("CRC"), std::string::npos);
}

TEST_F(WalTest, AppendModePreservesExistingRecords) {
  const std::string file = path("app.wal");
  const std::vector<WalRecord> records = sample_records(8, 3);
  {
    WalWriter w(file, FsyncPolicy::kEvery, /*truncate=*/true);
    for (std::size_t i = 0; i < 4; ++i) w.append(records[i]);
    w.close();
  }
  {
    WalWriter w(file, FsyncPolicy::kEvery, /*truncate=*/false);
    for (std::size_t i = 4; i < 8; ++i) w.append(records[i]);
    w.close();
  }
  const WalReadResult r = read_wal(file);
  ASSERT_EQ(r.records.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(r.records[i], records[i]);
}

TEST_F(WalTest, TruncateModeStartsFresh) {
  const std::string file = path("fresh.wal");
  write_records(file, sample_records(6, 1));
  write_records(file, sample_records(2, 2));
  EXPECT_EQ(read_wal(file).records.size(), 2u);
}

TEST_F(WalTest, FsyncPolicyParsing) {
  EXPECT_EQ(parse_fsync_policy("none"), FsyncPolicy::kNone);
  EXPECT_EQ(parse_fsync_policy("every"), FsyncPolicy::kEvery);
  EXPECT_THROW((void)parse_fsync_policy("often"), std::invalid_argument);
  EXPECT_EQ(to_string(FsyncPolicy::kNone), "none");
  EXPECT_EQ(to_string(FsyncPolicy::kEvery), "every");
}

// Frame-format v2 envelope rule: an intact frame whose type byte is
// unknown must be SKIPPED, not treated as corruption — records appended by
// a newer writer replay through an older reader. Pre-fix, the reader
// hard-failed on any frame whose length differed from the offer payload.
TEST_F(WalTest, UnknownRecordTypeIsSkippedNotFatal) {
  const std::string file = path("future.wal");
  const std::vector<WalRecord> records = sample_records(5, 21);
  {
    WalWriter w(file, FsyncPolicy::kNone, /*truncate=*/true);
    for (std::size_t i = 0; i < 3; ++i) w.append(records[i]);
    w.close();
  }
  {
    // Hand-craft an envelope-valid frame of unknown type 9.
    StateWriter payload;
    payload.u8(9);
    for (const char c : std::string("future-record-kind"))
      payload.u8(static_cast<std::uint8_t>(c));
    StateWriter frame;
    frame.u32(static_cast<std::uint32_t>(payload.size()));
    frame.u32(crc32(payload.buffer().data(), payload.size()));
    std::ofstream f(file, std::ios::binary | std::ios::app);
    f.write(frame.buffer().data(),
            static_cast<std::streamsize>(frame.size()));
    f.write(payload.buffer().data(),
            static_cast<std::streamsize>(payload.size()));
  }
  {
    WalWriter w(file, FsyncPolicy::kNone, /*truncate=*/false);
    for (std::size_t i = 3; i < 5; ++i) w.append(records[i]);
    w.close();
  }
  const WalReadResult r = read_wal(file);
  EXPECT_FALSE(r.torn) << r.tail_error;
  EXPECT_EQ(r.unknown_records, 1u);
  ASSERT_EQ(r.records.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(r.records[i], records[i]);
  EXPECT_EQ(r.valid_bytes, fs::file_size(file));
}

// One offer frame for every record: tenant-less and tenanted records
// round-trip through the same type-2 frame, a tenant-less one carrying
// tenant_len 0.
TEST_F(WalTest, TenantlessAndTenantedRecordsShareOneFrame) {
  const std::string file = path("tenant.wal");
  std::vector<WalRecord> records = sample_records(6, 11);
  records[1].tenant = "alice";
  records[3].tenant = "bob-2.example";
  records[4].tenant = "alice";
  write_records(file, records, FsyncPolicy::kEvery);

  const WalReadResult r = read_wal(file);
  EXPECT_FALSE(r.torn) << r.tail_error;
  ASSERT_EQ(r.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i)
    EXPECT_EQ(r.records[i], records[i]) << "record " << i;
  const std::map<unsigned, std::uint64_t> only_offers = {{2u, 6u}};
  EXPECT_EQ(r.frame_type_counts, only_offers);

  const std::string tenantless = path("tenantless.wal");
  write_records(tenantless, sample_records(4, 12));
  EXPECT_EQ(fs::file_size(tenantless), kHeaderBytes + 4 * kFrameBytes);
}

// The tenanted frame keeps the exact bytes earlier writers emitted, so
// their logs (every networked or multi-tenant serve run) replay unchanged.
TEST_F(WalTest, TenantedFrameBytesArePinned) {
  const std::string file = path("pinned.wal");
  WalRecord rec;
  rec.seq = 3;
  rec.stream_index = 17;
  rec.arrival = 1.5;
  rec.departure = 4.25;
  rec.size = 0.375;
  rec.bin = 2;
  rec.tenant = "t-9";
  write_records(file, {rec});

  StateWriter payload;
  payload.u8(2);
  payload.u64(3);
  payload.u64(17);
  payload.f64(1.5);
  payload.f64(4.25);
  payload.f64(0.375);
  payload.i64(2);
  payload.u64(3);
  for (const char c : std::string("t-9"))
    payload.u8(static_cast<std::uint8_t>(c));
  StateWriter seq_bytes;
  seq_bytes.u64(0);
  StateWriter want;
  for (const char c : std::string("CDBPWAL2"))
    want.u8(static_cast<std::uint8_t>(c));
  want.u64(0);
  want.u32(crc32(seq_bytes.buffer().data(), seq_bytes.size()));
  want.u32(static_cast<std::uint32_t>(payload.size()));
  want.u32(crc32(payload.buffer().data(), payload.size()));
  for (const char c : payload.buffer()) want.u8(static_cast<std::uint8_t>(c));

  std::ifstream in(file, std::ios::binary);
  const std::string got((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  EXPECT_EQ(got, want.buffer());
  const WalReadResult r = read_wal(file);
  ASSERT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.records[0], rec);
}

// Type 1 (the retired tenant-less frame) is an acked offer this reader
// cannot replay: read_wal must throw, neither skipping the frame as an
// unknown type nor reporting it as torn tail that recovery would truncate.
TEST_F(WalTest, RetiredType1FrameIsRefusedAndNotTruncated) {
  const std::string file = path("type1.wal");
  write_records(file, sample_records(2, 15));
  {
    StateWriter payload;
    payload.u8(1);
    for (int i = 0; i < 6; ++i) payload.u64(0);  // the retired fixed body
    StateWriter frame;
    frame.u32(static_cast<std::uint32_t>(payload.size()));
    frame.u32(crc32(payload.buffer().data(), payload.size()));
    std::ofstream f(file, std::ios::binary | std::ios::app);
    f.write(frame.buffer().data(), static_cast<std::streamsize>(frame.size()));
    f.write(payload.buffer().data(),
            static_cast<std::streamsize>(payload.size()));
  }
  const std::uint64_t size = fs::file_size(file);
  try {
    (void)read_wal(file);
    ADD_FAILURE() << "read_wal accepted a retired type-1 frame";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("type-1"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(fs::file_size(file), size);
}

// A CRC-valid type-2 frame whose tenant_len disagrees with the payload's
// remaining bytes is corruption, not a short tenant: the reader must stop
// at the intact prefix and flag the tail.
TEST_F(WalTest, TenantFrameWithBadLengthIsTorn) {
  const std::string file = path("badlen.wal");
  const std::vector<WalRecord> records = sample_records(2, 13);
  write_records(file, records);

  const auto append_type2 = [&](std::uint64_t tenant_len,
                                const std::string& tenant_bytes) {
    StateWriter payload;
    payload.u8(2);
    for (int i = 0; i < 6; ++i) payload.u64(0);  // fixed offer fields
    payload.u64(tenant_len);
    for (const char c : tenant_bytes)
      payload.u8(static_cast<std::uint8_t>(c));
    StateWriter frame;
    frame.u32(static_cast<std::uint32_t>(payload.size()));
    frame.u32(crc32(payload.buffer().data(), payload.size()));
    std::ofstream f(file, std::ios::binary | std::ios::app);
    f.write(frame.buffer().data(), static_cast<std::streamsize>(frame.size()));
    f.write(payload.buffer().data(),
            static_cast<std::streamsize>(payload.size()));
  };

  // tenant_len claims 99 bytes but only 4 follow.
  append_type2(99, "oops");
  {
    const WalReadResult r = read_wal(file);
    EXPECT_TRUE(r.torn);
    EXPECT_EQ(r.records.size(), 2u);
    EXPECT_NE(r.tail_error.find("length"), std::string::npos) << r.tail_error;
  }

  // Heal; tenant_len 0 followed by stray bytes is torn too.
  truncate_wal(file, read_wal(file).valid_bytes);
  append_type2(0, "xy");
  {
    const WalReadResult r = read_wal(file);
    EXPECT_TRUE(r.torn);
    EXPECT_EQ(r.records.size(), 2u);
  }

  // Heal; tenant_len 0 with nothing after it is a tenant-less offer.
  truncate_wal(file, read_wal(file).valid_bytes);
  append_type2(0, "");
  {
    const WalReadResult r = read_wal(file);
    EXPECT_FALSE(r.torn) << r.tail_error;
    ASSERT_EQ(r.records.size(), 3u);
    EXPECT_TRUE(r.records.back().tenant.empty());
  }
}

TEST_F(WalTest, SegmentHeaderRoundTripsBaseSeq) {
  const std::string file = path("seg.wal");
  std::vector<WalRecord> records = sample_records(4, 33);
  for (std::size_t i = 0; i < records.size(); ++i) records[i].seq = 42 + i;
  {
    WalWriter w(file, FsyncPolicy::kEvery, /*truncate=*/true, 42);
    for (const WalRecord& rec : records) w.append(rec);
    w.close();
  }
  const WalReadResult r = read_wal(file);
  EXPECT_TRUE(r.exists);
  EXPECT_FALSE(r.torn) << r.tail_error;
  EXPECT_EQ(r.base_seq, 42u);
  ASSERT_EQ(r.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i)
    EXPECT_EQ(r.records[i], records[i]);
}

TEST_F(WalTest, CorruptSegmentHeaderIsTornAtZero) {
  const std::string file = path("seghdr.wal");
  {
    WalWriter w(file, FsyncPolicy::kNone, /*truncate=*/true, 7);
    w.append(sample_records(1, 2)[0]);
    w.close();
  }
  // Flip a byte inside the header's base_seq: the header CRC must reject
  // the whole file rather than trust a wrong base sequence.
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(9);
  f.put('\x55');
  f.close();
  const WalReadResult r = read_wal(file);
  EXPECT_TRUE(r.torn);
  EXPECT_EQ(r.valid_bytes, 0u);
  EXPECT_NE(r.tail_error.find("header"), std::string::npos);
}

TEST_F(WalTest, AppendAfterCloseThrows) {
  const std::string file = path("closed.wal");
  WalWriter w(file, FsyncPolicy::kNone, /*truncate=*/true);
  w.append(sample_records(1, 5)[0]);
  w.close();
  w.close();  // idempotent
  EXPECT_THROW(w.append(sample_records(1, 6)[0]), std::logic_error);
}

}  // namespace
}  // namespace cdbp::serve
