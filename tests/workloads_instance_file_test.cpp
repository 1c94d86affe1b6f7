#include "workloads/instance_file.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algos/any_fit.h"
#include "core/simulator.h"
#include "scratch_path.h"
#include "test_util.h"
#include "workloads/general_random.h"

namespace cdbp::workloads {
namespace {

std::string temp_path(const std::string& name) {
  return testutil::scratch_path(name).string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

struct TempFile {
  explicit TempFile(const std::string& name) : path(temp_path(name)) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

TEST(InstanceFile, RoundTripsExactly) {
  TempFile f("cdbp_if_roundtrip.cdbpi");
  const Instance in = testutil::make_instance({
      {0.0, 8.0, 0.25},
      {1.5, 3.25, 1.0 / 3.0},  // non-dyadic size survives (binary format)
      {1.5, 66.0, 0.875},      // ties in arrival are legal
      {2.0, 2.5, 1.0},         // full-bin item
  });
  write_instance_file(f.path, in);
  const Instance back = read_instance_file(f.path);
  ASSERT_EQ(back.size(), in.size());
  for (std::size_t k = 0; k < in.size(); ++k) {
    EXPECT_EQ(back[k].id, in[k].id);
    EXPECT_EQ(back[k].arrival, in[k].arrival);  // bitwise
    EXPECT_EQ(back[k].departure, in[k].departure);
    EXPECT_EQ(back[k].size, in[k].size);
  }
}

TEST(InstanceFile, EmptyInstanceRoundTrips) {
  TempFile f("cdbp_if_empty.cdbpi");
  write_instance_file(f.path, Instance{});
  const Instance back = read_instance_file(f.path);
  EXPECT_EQ(back.size(), 0u);
  InstanceFileReader reader(f.path);
  Item item;
  EXPECT_EQ(reader.size_hint(), 0u);
  EXPECT_FALSE(reader.next(item));
}

TEST(InstanceFile, ChunkBoundarySizesRoundTrip) {
  // Exercise the chunking edge cases with a tiny chunk size: exactly one
  // chunk, one item short, one item over, and several full chunks.
  constexpr std::size_t kChunk = 8;
  for (const std::size_t n : {std::size_t{7}, std::size_t{8}, std::size_t{9},
                              std::size_t{32}, std::size_t{33}}) {
    TempFile f("cdbp_if_chunks.cdbpi");
    {
      InstanceFileWriter writer(f.path, kChunk);
      for (std::size_t k = 0; k < n; ++k)
        writer.add(static_cast<Time>(k), static_cast<Time>(k) + 1.5, 0.5);
      writer.close();
      EXPECT_EQ(writer.items_written(), n);
    }
    InstanceFileReader reader(f.path);
    EXPECT_EQ(reader.size_hint(), n);
    Item item;
    std::size_t got = 0;
    while (reader.next(item)) {
      EXPECT_EQ(item.id, static_cast<ItemId>(got));
      EXPECT_EQ(item.arrival, static_cast<Time>(got));
      ++got;
    }
    EXPECT_EQ(got, n);
    EXPECT_FALSE(reader.next(item));  // stays exhausted
  }
}

TEST(InstanceFile, StreamedRunMatchesInRamRun) {
  TempFile f("cdbp_if_sim.cdbpi");
  std::mt19937_64 rng(5);
  GeneralConfig cfg;
  cfg.target_items = 300;
  cfg.log2_mu = 5;
  cfg.horizon = 30.0;
  const Instance in = make_general_random(cfg, rng);
  write_instance_file(f.path, in, /*chunk_items=*/64);

  const Simulator sim{SimulatorOptions{.keep_history = false}};
  algos::AnyFit ff(algos::FitRule::kFirst);
  const RunResult in_ram = sim.run(in, ff);

  InstanceFileReader source(f.path);
  algos::AnyFit ff2(algos::FitRule::kFirst);
  const RunResult streamed = sim.run_source(source, ff2);

  EXPECT_EQ(streamed.cost, in_ram.cost);  // bitwise
  EXPECT_EQ(streamed.bins_opened, in_ram.bins_opened);
  EXPECT_EQ(streamed.max_open, in_ram.max_open);
  EXPECT_EQ(streamed.items, in.size());
}

TEST(InstanceFile, EveryTruncationPrefixIsRejected) {
  TempFile f("cdbp_if_trunc.cdbpi");
  {
    InstanceFileWriter writer(f.path, /*chunk_items=*/4);
    for (int k = 0; k < 10; ++k) writer.add(k, k + 2.0, 0.25);
    writer.close();
  }
  const std::string bytes = slurp(f.path);
  ASSERT_GT(bytes.size(), 8u);
  TempFile cut("cdbp_if_trunc_cut.cdbpi");
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    spit(cut.path, bytes.substr(0, len));
    EXPECT_THROW(
        {
          InstanceFileReader reader(cut.path);
          Item item;
          while (reader.next(item)) {
          }
        },
        std::runtime_error)
        << "truncation at byte " << len << " was accepted";
  }
}

TEST(InstanceFile, EveryByteFlipIsRejected) {
  // A single flipped bit anywhere must be caught — by the magic check, a
  // CRC mismatch, or a structural validation. No flip may silently yield a
  // different instance.
  TempFile f("cdbp_if_flip.cdbpi");
  {
    InstanceFileWriter writer(f.path, /*chunk_items=*/4);
    for (int k = 0; k < 6; ++k) writer.add(k, k + 2.0, 0.25);
    writer.close();
  }
  const std::string bytes = slurp(f.path);
  TempFile bad("cdbp_if_flip_bad.cdbpi");
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x40);
    spit(bad.path, mutated);
    EXPECT_THROW(
        {
          InstanceFileReader reader(bad.path);
          Item item;
          while (reader.next(item)) {
          }
        },
        std::runtime_error)
        << "byte flip at offset " << pos << " was accepted";
  }
}

TEST(InstanceFile, TrailingDataRejected) {
  TempFile f("cdbp_if_trailing.cdbpi");
  {
    InstanceFileWriter writer(f.path);
    writer.add(0.0, 1.0, 0.5);
    writer.close();
  }
  std::string bytes = slurp(f.path);
  bytes.push_back('\0');
  spit(f.path, bytes);
  EXPECT_THROW(
      {
        InstanceFileReader reader(f.path);
        Item item;
        while (reader.next(item)) {
        }
      },
      std::runtime_error);
}

TEST(InstanceFile, WriterRejectsMalformedItems) {
  TempFile f("cdbp_if_badwrite.cdbpi");
  InstanceFileWriter writer(f.path);
  EXPECT_THROW(writer.add(0.0, 1.0, 0.0), std::invalid_argument);   // size 0
  EXPECT_THROW(writer.add(0.0, 1.0, 1.5), std::invalid_argument);   // > cap
  EXPECT_THROW(writer.add(2.0, 2.0, 0.5), std::invalid_argument);   // dep<=arr
  writer.add(3.0, 4.0, 0.5);
  EXPECT_THROW(writer.add(2.0, 5.0, 0.5),
               std::invalid_argument);  // arrivals out of order
  writer.close();
}

TEST(InstanceFile, MissingFileAndBadMagicRejected) {
  EXPECT_THROW(InstanceFileReader("/nonexistent/no.cdbpi"),
               std::runtime_error);
  TempFile f("cdbp_if_magic.cdbpi");
  spit(f.path, "NOTCDBPI-------------------------");
  EXPECT_THROW(InstanceFileReader{f.path}, std::runtime_error);
}

}  // namespace
}  // namespace cdbp::workloads
