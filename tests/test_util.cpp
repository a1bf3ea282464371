// RNG, thread pool, env, table, JSON writer and wire-codec utilities.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <sstream>
#include <vector>

#include "util/check.h"
#include "util/env.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/wire.h"

namespace subfed {
namespace {

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitIsIndependentOfParentAdvance) {
  Rng parent(9);
  Rng child1 = parent.split("stream", 0);
  // Splitting does not consume parent state; a second split with the same
  // key yields the identical stream.
  Rng child2 = parent.split("stream", 0);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(child1(), child2());
}

TEST(Rng, SplitStreamsAreDistinct) {
  Rng parent(9);
  Rng a = parent.split("stream", 0);
  Rng b = parent.split("stream", 1);
  Rng c = parent.split("other", 0);
  EXPECT_NE(a(), b());
  EXPECT_NE(a(), c());
}

TEST(Rng, UniformRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(3.0, 7.0);
    EXPECT_GE(v, 3.0);
    EXPECT_LT(v, 7.0);
  }
}

TEST(Rng, UniformIndexCoversAll) {
  Rng rng(6);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.rbegin(), 6u);
}

TEST(Rng, NormalMoments) {
  Rng rng(7);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(8);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, SampleWithoutReplacement) {
  Rng rng(9);
  const auto sample = rng.sample_without_replacement(10, 4);
  EXPECT_EQ(sample.size(), 4u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 4u);
  for (const std::size_t s : sample) EXPECT_LT(s, 10u);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), CheckError);
}

TEST(Rng, SampleAllIsPermutation) {
  Rng rng(10);
  const auto sample = rng.sample_without_replacement(5, 5);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(HashName, StableAndDistinct) {
  EXPECT_EQ(hash_name("alpha"), hash_name("alpha"));
  EXPECT_NE(hash_name("alpha"), hash_name("beta"));
  EXPECT_NE(hash_name(""), hash_name("a"));
}

TEST(ThreadPool, ParallelForRunsAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 5) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ZeroAndOneWork) {
  ThreadPool pool(3);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
  int count = 0;
  pool.parallel_for(1, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 1);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(4, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 16);
}

TEST(Env, IntDoubleStringFallbacks) {
  ::unsetenv("SUBFEDAVG_TEST_ENV");
  EXPECT_EQ(env_int("SUBFEDAVG_TEST_ENV", 42), 42);
  EXPECT_DOUBLE_EQ(env_double("SUBFEDAVG_TEST_ENV", 2.5), 2.5);
  EXPECT_EQ(env_string("SUBFEDAVG_TEST_ENV", "dflt"), "dflt");

  ::setenv("SUBFEDAVG_TEST_ENV", "17", 1);
  EXPECT_EQ(env_int("SUBFEDAVG_TEST_ENV", 42), 17);
  ::setenv("SUBFEDAVG_TEST_ENV", "3.25", 1);
  EXPECT_DOUBLE_EQ(env_double("SUBFEDAVG_TEST_ENV", 0.0), 3.25);
  ::setenv("SUBFEDAVG_TEST_ENV", "hello", 1);
  EXPECT_EQ(env_string("SUBFEDAVG_TEST_ENV", ""), "hello");
  // Unparsable int falls back.
  EXPECT_EQ(env_int("SUBFEDAVG_TEST_ENV", 5), 5);
  ::unsetenv("SUBFEDAVG_TEST_ENV");
}

TEST(Table, AlignmentAndArity) {
  TablePrinter t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name      | value |"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(Table, CsvEscaping) {
  TablePrinter t({"a", "b"});
  t.add_row({"x,y", "quo\"te"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"quo\"\"te\""), std::string::npos);
}

TEST(Format, Helpers) {
  EXPECT_EQ(format_float(3.14159, 2), "3.14");
  EXPECT_EQ(format_percent(0.3141, 1), "31.4%");
  EXPECT_EQ(format_bytes(512), "512.00 B");
  EXPECT_EQ(format_bytes(2048), "2.00 KB");
  EXPECT_EQ(format_bytes(3.5 * 1024 * 1024), "3.50 MB");
  EXPECT_EQ(format_bytes(1.25 * 1024 * 1024 * 1024), "1.25 GB");
}

TEST(Json, WriteJsonStringEscapesWhatJsonRequires) {
  const std::string text = std::string("q\"b\\s\n\r\t") + '\x01' + '\x1f' + " \xc3\xa9/";
  std::ostringstream os;
  write_json_string(os, text);
  EXPECT_EQ(os.str(), "\"q\\\"b\\\\s\\n\\r\\t\\u0001\\u001f \xc3\xa9/\"");
  EXPECT_EQ(parse_json(os.str()).string, text);

  std::ostringstream plain;
  write_json_string(plain, "comm.encode_s");
  EXPECT_EQ(plain.str(), "\"comm.encode_s\"");
}

TEST(Wire, LittleEndianWritersAndBoundedReader) {
  wire::Bytes out;
  wire::put_u32(out, 0x04030201u);
  wire::put_u64(out, 0x0C0B0A0908070605ULL);
  wire::put_string(out, "ab");
  wire::put_u8(out, 0xEE);
  EXPECT_EQ(out, (wire::Bytes{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 2, 0, 0, 0, 'a', 'b', 0xEE}));

  wire::Reader reader(out, "sample");
  EXPECT_EQ(reader.u32(), 0x04030201u);
  EXPECT_EQ(reader.u64(), 0x0C0B0A0908070605ULL);
  EXPECT_EQ(reader.string(), "ab");
  EXPECT_THROW(reader.finish(), CheckError);  // one byte left
  EXPECT_EQ(reader.u8(), 0xEE);
  reader.finish();
  EXPECT_THROW(reader.u8(), CheckError);

  // A count is refused when the bytes left cannot hold that many elements.
  wire::Bytes counted;
  wire::put_u32(counted, 3);
  counted.resize(counted.size() + 11);
  wire::Reader short_reader(counted, "sample");
  EXPECT_THROW(short_reader.count(4), CheckError);
  wire::Reader exact_reader(counted, "sample");
  EXPECT_EQ(exact_reader.count(3), 3u);
}

TEST(Check, ThrowsWithMessage) {
  try {
    SUBFEDAVG_CHECK(1 == 2, "custom " << 42);
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("custom 42"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

}  // namespace
}  // namespace subfed
