#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "util/flags.h"
#include "util/hash.h"
#include "util/heap.h"
#include "util/rng.h"
#include "util/small_vector.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace twig {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kParseError,
        StatusCode::kNotFound, StatusCode::kOutOfRange, StatusCode::kCorruption,
        StatusCode::kUnimplemented, StatusCode::kInternal,
        StatusCode::kUnavailable, StatusCode::kDeadlineExceeded}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

TEST(StatusTest, ServingCodesCarryCodeAndMessage) {
  Status unavailable = Status::Unavailable("queue full");
  EXPECT_EQ(unavailable.code(), StatusCode::kUnavailable);
  EXPECT_EQ(unavailable.ToString(), "Unavailable: queue full");
  Status expired = Status::DeadlineExceeded("too slow");
  EXPECT_EQ(expired.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(expired.ToString(), "DeadlineExceeded: too slow");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(HashTest, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(Mix64(1), Mix64(1));
  std::set<uint64_t> values;
  for (uint64_t i = 0; i < 1000; ++i) values.insert(Mix64(i));
  EXPECT_EQ(values.size(), 1000u);
}

TEST(HashTest, SeededHashDependsOnSeed) {
  EXPECT_NE(SeededHash64(1, 99), SeededHash64(2, 99));
  EXPECT_EQ(SeededHash64(1, 99), SeededHash64(1, 99));
}

TEST(HashTest, HashBytesStable) {
  EXPECT_EQ(HashBytes("abc"), HashBytes("abc"));
  EXPECT_NE(HashBytes("abc"), HashBytes("abd"));
  EXPECT_NE(HashBytes("abc", 1), HashBytes("abc", 2));
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.Uniform(10);
    EXPECT_LT(v, 10u);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo = saw_lo || v == 2;
    saw_hi = saw_hi || v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(ZipfTest, UniformWhenThetaZero) {
  ZipfSampler zipf(4, 0.0);
  Rng rng(5);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 40000; ++i) ++counts[zipf.Sample(rng)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(ZipfTest, SkewedWhenThetaLarge) {
  ZipfSampler zipf(100, 1.2);
  Rng rng(5);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Sample(rng)];
  EXPECT_GT(counts[0], counts[50] * 5);
}

TEST(StringsTest, SplitKeepsEmptyPieces) {
  EXPECT_EQ(StrSplit("a.b", '.'), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(StrSplit("a..b", '.'), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(StrSplit("", '.'), (std::vector<std::string>{""}));
}

TEST(StringsTest, JoinRoundTrips) {
  const std::vector<std::string> pieces = {"x", "y", "z"};
  EXPECT_EQ(StrJoin(pieces, "."), "x.y.z");
  EXPECT_EQ(StrSplit(StrJoin(pieces, "."), '.'), pieces);
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("Stonebraker", "Stone"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_FALSE(StartsWith("ab", "abc"));
}

TEST(StringsTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KB");
  EXPECT_EQ(HumanBytes(3 * 1024 * 1024), "3.0 MB");
}

TEST(SmallVectorTest, StaysInlineThenSpillsToHeap) {
  util::SmallVector<int, 4> v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), 4u);
  for (int i = 0; i < 100; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(v[i], i);
  EXPECT_EQ(v.front(), 0);
  EXPECT_EQ(v.back(), 99);
}

TEST(SmallVectorTest, ConvertsFromVectorAndInitializerList) {
  const std::vector<int> source = {1, 2, 3, 4, 5, 6};
  util::SmallVector<int, 4> from_vector = source;
  EXPECT_TRUE(std::equal(from_vector.begin(), from_vector.end(),
                         source.begin(), source.end()));
  util::SmallVector<int, 4> from_list = {7, 8};
  EXPECT_EQ(from_list.size(), 2u);
  from_list = {9};
  EXPECT_EQ(from_list.size(), 1u);
  EXPECT_EQ(from_list[0], 9);
}

TEST(SmallVectorTest, CopyAndMoveAcrossStorageModes) {
  util::SmallVector<std::string, 2> inline_v = {"a", "b"};
  util::SmallVector<std::string, 2> heap_v = {"a", "b", "c", "d"};
  auto inline_copy = inline_v;
  auto heap_copy = heap_v;
  EXPECT_EQ(inline_copy, inline_v);
  EXPECT_EQ(heap_copy, heap_v);
  auto inline_moved = std::move(inline_copy);
  auto heap_moved = std::move(heap_copy);
  EXPECT_EQ(inline_moved, inline_v);
  EXPECT_EQ(heap_moved, heap_v);
  heap_moved = inline_v;  // shrink back across modes
  EXPECT_EQ(heap_moved, inline_v);
}

TEST(SmallVectorTest, InsertEraseResize) {
  util::SmallVector<int, 4> v = {1, 2, 5};
  const std::vector<int> mid = {3, 4};
  v.insert(v.begin() + 2, mid.begin(), mid.end());
  EXPECT_EQ(v, (util::SmallVector<int, 4>{1, 2, 3, 4, 5}));
  v.erase(v.begin() + 1, v.begin() + 3);
  EXPECT_EQ(v, (util::SmallVector<int, 4>{1, 4, 5}));
  v.resize(5);
  EXPECT_EQ(v, (util::SmallVector<int, 4>{1, 4, 5, 0, 0}));
  v.resize(2);
  EXPECT_EQ(v, (util::SmallVector<int, 4>{1, 4}));
}

TEST(ThreadPoolTest, ParallelForVisitsEveryItemExactlyOnce) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  constexpr size_t kItems = 5000;
  std::vector<int> hits(kItems, 0);  // distinct slots: no contention
  std::vector<int> worker_used(pool.size(), 0);
  pool.ParallelFor(kItems, [&](size_t item, size_t worker) {
    ASSERT_LT(item, kItems);
    ASSERT_LT(worker, pool.size());
    hits[item] += 1;
    worker_used[worker] = 1;
  });
  for (size_t i = 0; i < kItems; ++i) EXPECT_EQ(hits[i], 1) << i;
  // At least one worker ran; how many share the batch is scheduling-
  // dependent (a fast worker may drain it alone on a loaded machine).
  EXPECT_GE(worker_used[0] + worker_used[1] + worker_used[2] +
                worker_used[3],
            1);
}

TEST(ThreadPoolTest, ReusableAcrossBatchesAndHandlesEmpty) {
  util::ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t, size_t) { FAIL(); });
  for (int round = 0; round < 50; ++round) {
    std::vector<int> hits(round + 1, 0);
    pool.ParallelFor(hits.size(),
                     [&](size_t item, size_t) { hits[item] += 1; });
    for (int h : hits) EXPECT_EQ(h, 1);
  }
}

// The arena trap (DESIGN.md §17): after the calling thread frees a
// block as large as a parsed document, glibc would serve pool threads'
// multi-MiB arrays from their arenas and keep what they free. With the
// threshold frozen those arrays are mapped and unmapped, so the free
// bytes malloc holds barely move.
TEST(HeapTest, FrozenMmapThresholdReturnsWorkerArraysToTheKernel) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the sanitizer's allocator replaces glibc's malloc";
#endif
  ASSERT_TRUE(util::FreezeMmapThreshold());
  // What parsing does: free an 8 MiB block on the calling thread. The
  // volatile sink keeps the compiler from eliding the pair.
  constexpr size_t kTextBytes = 8u << 20;
  static void* volatile sink = nullptr;
  sink = std::malloc(kTextBytes);
  ASSERT_NE(sink, nullptr);
  std::memset(sink, 1, kTextBytes);
  std::free(sink);

  // What the PST parts do: grow arrays to 4 MiB by push_back on pool
  // threads and free them, counting every buffer each one released.
  constexpr uint64_t kRecords = (4u << 20) / sizeof(uint64_t);
  util::ThreadPool pool(4);
  std::vector<size_t> freed(pool.size(), 0);
  std::vector<uint64_t> last(pool.size(), 0);
  const size_t free_before = mallinfo2().fordblks;
  pool.ParallelFor(pool.size(), [&](size_t item, size_t) {
    std::vector<uint64_t> records;
    for (uint64_t i = 0; i < kRecords; ++i) {
      if (records.size() == records.capacity()) {
        freed[item] += records.capacity() * sizeof(uint64_t);
      }
      records.push_back(i);
    }
    freed[item] += records.capacity() * sizeof(uint64_t);
    last[item] = records.back();
  });
  const size_t free_after = mallinfo2().fordblks;

  size_t freed_total = 0;
  for (size_t item = 0; item < pool.size(); ++item) {
    EXPECT_EQ(last[item], kRecords - 1);
    freed_total += freed[item];
  }
  const size_t grown = free_after > free_before ? free_after - free_before : 0;
  EXPECT_LT(grown, freed_total / 8)
      << "malloc holds " << grown << " more free bytes after the workers "
      << "freed " << freed_total;
}

TEST(FlagParserTest, ParsesEveryFlagKind) {
  std::string name = "default";
  size_t bytes = 0;
  double space = 0;
  bool json = false;
  std::string custom;
  std::vector<std::string> positional;
  util::FlagParser flags("prog", "usage: prog\n");
  flags.String("name", &name);
  flags.Size("bytes", &bytes);
  flags.Double("space", &space);
  flags.Bool("json", &json);
  flags.Custom("algo", [&](std::string_view v) {
    custom.assign(v);
    return !v.empty();
  });
  flags.Positional(&positional);
  const char* argv[] = {"prog",          "--name=x",    "--bytes=42",
                        "--space=0.25",  "--json",      "--algo=MSH",
                        "first",         "second"};
  EXPECT_EQ(flags.Parse(8, const_cast<char**>(argv)), -1);
  EXPECT_EQ(name, "x");
  EXPECT_EQ(bytes, 42u);
  EXPECT_DOUBLE_EQ(space, 0.25);
  EXPECT_TRUE(json);
  EXPECT_EQ(custom, "MSH");
  EXPECT_EQ(positional, (std::vector<std::string>{"first", "second"}));
}

TEST(FlagParserTest, RejectsUnknownBadAndMisshapenArguments) {
  const auto parse_one = [](const char* arg, bool with_positional = false) {
    size_t bytes = 0;
    bool json = false;
    std::vector<std::string> positional;
    util::FlagParser flags("prog", "usage: prog\n");
    flags.Size("bytes", &bytes);
    flags.Bool("json", &json);
    if (with_positional) flags.Positional(&positional);
    const char* argv[] = {"prog", arg};
    return flags.Parse(2, const_cast<char**>(argv));
  };
  EXPECT_EQ(parse_one("--no-such-flag"), 2);
  EXPECT_EQ(parse_one("-x"), 2);             // single-dash is never a flag
  EXPECT_EQ(parse_one("--bytes=12abc"), 2);  // trailing junk in a number
  EXPECT_EQ(parse_one("--bytes"), 2);        // value flag without a value
  EXPECT_EQ(parse_one("--json=1"), 2);       // bool flag with a value
  EXPECT_EQ(parse_one("stray"), 2);          // positional without opt-in
  EXPECT_EQ(parse_one("stray", /*with_positional=*/true), -1);
}

TEST(FlagParserTest, HelpReportsExitZeroAndCustomCanReject) {
  util::FlagParser flags("prog", "usage: prog\n");
  const char* help_argv[] = {"prog", "--help"};
  EXPECT_EQ(flags.Parse(2, const_cast<char**>(help_argv)), 0);

  util::FlagParser rejecting("prog", "usage: prog\n");
  rejecting.Custom("algo", [](std::string_view) { return false; });
  const char* bad_argv[] = {"prog", "--algo=nope"};
  EXPECT_EQ(rejecting.Parse(2, const_cast<char**>(bad_argv)), 2);
}

}  // namespace
}  // namespace twig
