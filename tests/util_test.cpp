// Unit tests for the utility substrate: RNG determinism and distribution
// sanity, streaming statistics, tables/CSV, option parsing.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/atomic_file.hpp"
#include "util/backoff.hpp"
#include "util/bitvec.hpp"
#include "util/cancel.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/exit_codes.hpp"
#include "util/lockfile.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "test_paths.hpp"

namespace accu::util {
namespace {

using test::temp_path;

// ---------------------------------------------------------------- Rng ----

TEST(RngTest, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(RngTest, ReseedRestartsStream) {
  Rng a(7);
  const std::uint64_t first = a();
  a.reseed(7);
  EXPECT_EQ(a(), first);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(3);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.uniform();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-2.5, 7.5);
    ASSERT_GE(x, -2.5);
    ASSERT_LT(x, 7.5);
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(5);
  int hits = 0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(RngTest, BernoulliExtremesAreDeterministic) {
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, BelowCoversRangeUniformly) {
  Rng rng(8);
  std::vector<int> counts(10, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ++counts[rng.below(10)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.1, 0.01);
  }
}

TEST(RngTest, RangeInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t x = rng.range(-3, 3);
    ASSERT_GE(x, -3);
    ASSERT_LE(x, 3);
    saw_lo |= (x == -3);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(10);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  rng.shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sorted[static_cast<size_t>(i)], i);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(11);
  const auto picks = rng.sample_without_replacement(100, 30);
  EXPECT_EQ(picks.size(), 30u);
  std::vector<std::size_t> sorted = picks;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  for (const std::size_t p : picks) EXPECT_LT(p, 100u);
}

TEST(RngTest, SampleWholePopulation) {
  Rng rng(12);
  const auto picks = rng.sample_without_replacement(5, 5);
  std::vector<std::size_t> sorted = picks;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(RngTest, SplitStreamsAreIndependent) {
  Rng parent(13);
  Rng a = parent.split(1);
  Rng b = parent.split(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(RngTest, GeometricSkipsMeanMatches) {
  Rng rng(14);
  const double p = 0.2;
  double sum = 0.0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) {
    sum += static_cast<double>(rng.geometric_skips(p));
  }
  // Mean failures before success = (1-p)/p = 4.
  EXPECT_NEAR(sum / trials, 4.0, 0.15);
}

TEST(RngTest, GeometricSkipsCertainSuccess) {
  Rng rng(15);
  EXPECT_EQ(rng.geometric_skips(1.0), 0u);
}

TEST(RngTest, FillRawMatchesSequentialDraws) {
  Rng a(77);
  Rng b(77);
  std::vector<std::uint64_t> bulk(1000);
  a.fill_raw(bulk.data(), bulk.size());
  for (std::size_t i = 0; i < bulk.size(); ++i) {
    ASSERT_EQ(bulk[i], b()) << "draw " << i;
  }
  // Both generators must land on the same state.
  EXPECT_EQ(a(), b());
}

TEST(RngTest, BernoulliThresholdMatchesUniformCompare) {
  // The integer-threshold compare must reproduce `uniform() < p` for every
  // draw — including thresholds next to representability boundaries.
  Rng prng(16);
  std::vector<double> ps = {0.5, 0.25, 1e-9, 1.0 - 1e-9, 0x1.0p-53,
                            1.0 - 0x1.0p-53};
  for (int i = 0; i < 40; ++i) ps.push_back(prng.uniform());
  for (const double p : ps) {
    if (p <= 0.0 || p >= 1.0) continue;
    const std::uint64_t thr = Rng::bernoulli_threshold(p);
    Rng draws(17);
    Rng oracle(17);
    for (int i = 0; i < 2000; ++i) {
      const bool fast = (draws() >> 11) < thr;
      const bool ref = oracle.uniform() < p;
      ASSERT_EQ(fast, ref) << "p=" << p << " draw " << i;
    }
  }
}

TEST(CounterRngTest, MatchesSplitmixStreamRandomAccess) {
  const std::uint64_t seed = 0xfeed1234u;
  CounterRng counter(seed);
  std::uint64_t state = seed;
  std::vector<std::uint64_t> stream(64);
  for (auto& x : stream) x = splitmix64_next(state);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(counter.at(i), stream[i]) << i;
  }
  // Out-of-order and bulk access agree with random access.
  EXPECT_EQ(counter.at(63), stream[63]);
  EXPECT_EQ(counter.at(0), stream[0]);
  std::vector<std::uint64_t> bulk(32);
  counter.fill(16, bulk.data(), bulk.size());
  for (std::size_t i = 0; i < bulk.size(); ++i) {
    EXPECT_EQ(bulk[i], stream[16 + i]) << i;
  }
}

// --------------------------------------------------------------- BitVec ----

TEST(BitVecTest, SetGetResizeAndTailInvariant) {
  BitVec bits(70, false);
  bits.set(0, true);
  bits.set(63, true);
  bits.set(69, true);
  EXPECT_TRUE(bits.get(0));
  EXPECT_TRUE(bits.get(63));
  EXPECT_FALSE(bits.get(64));
  EXPECT_TRUE(bits.get(69));
  EXPECT_EQ(bits.words().size(), 2u);
  // Tail bits past size() stay zero through every mutator.
  EXPECT_EQ(bits.words()[1] >> 6, 0u);
  bits.assign(70, true);
  EXPECT_EQ(bits.words()[1], (~0ull) >> (64 - 6));
  bits.resize(64);
  bits.resize(70);
  for (std::size_t i = 64; i < 70; ++i) EXPECT_FALSE(bits.get(i));
}

TEST(BitVecTest, CopyFromVectorBoolAndBitVec) {
  std::vector<bool> src(130, false);
  for (std::size_t i = 0; i < src.size(); i += 7) src[i] = true;
  BitVec a;
  a.copy_from(src);
  ASSERT_EQ(a.size(), src.size());
  for (std::size_t i = 0; i < src.size(); ++i) EXPECT_EQ(a.get(i), src[i]);
  BitVec b;
  b.copy_from(a);
  ASSERT_EQ(b.size(), a.size());
  EXPECT_TRUE(std::equal(a.words().begin(), a.words().end(),
                         b.words().begin(), b.words().end()));
}

// ---------------------------------------------------------- RunningStat ----

TEST(RunningStatTest, MeanAndVariance) {
  RunningStat s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Population variance of this classic sample is 4; unbiased = 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatTest, SingleSampleHasZeroVariance) {
  RunningStat s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stderr_mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(RunningStatTest, MergeEqualsSequential) {
  RunningStat all, left, right;
  Rng rng(16);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-5, 5);
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStatTest, MergeWithEmpty) {
  RunningStat a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  empty.merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), mean);
}

// ----------------------------------------------------- SeriesAccumulator ----

TEST(SeriesAccumulatorTest, PerIndexMeans) {
  SeriesAccumulator acc;
  acc.add_run({1.0, 2.0, 3.0});
  acc.add_run({3.0, 4.0});
  EXPECT_EQ(acc.length(), 3u);
  EXPECT_DOUBLE_EQ(acc.at(0).mean(), 2.0);
  EXPECT_DOUBLE_EQ(acc.at(1).mean(), 3.0);
  EXPECT_DOUBLE_EQ(acc.at(2).mean(), 3.0);
  EXPECT_EQ(acc.at(2).count(), 1u);
}

TEST(SeriesAccumulatorTest, AddAtGrows) {
  SeriesAccumulator acc;
  acc.add_at(5, 7.0);
  EXPECT_EQ(acc.length(), 6u);
  EXPECT_EQ(acc.at(0).count(), 0u);
  EXPECT_DOUBLE_EQ(acc.at(5).mean(), 7.0);
}

// -------------------------------------------------------------- Histogram ----

TEST(HistogramTest, BinningAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);   // bin 0
  h.add(9.5);   // bin 4
  h.add(-3.0);  // clamped to bin 0
  h.add(42.0);  // clamped to bin 4
  h.add(5.0);   // bin 2
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_DOUBLE_EQ(h.bin_lo(2), 4.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(2), 6.0);
  EXPECT_DOUBLE_EQ(h.fraction(0), 0.4);
}

TEST(HistogramTest, RejectsDegenerateRange) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), InvalidArgument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), InvalidArgument);
}

TEST(HistogramTest, NanSamplesAreCountedNotBinned) {
  // floor(NaN) cast to an integer is UB; a NaN sample must land in the
  // nan_count() tally without disturbing any bin or the total.
  Histogram h(0.0, 10.0, 5);
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(5.0);
  h.add(-std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.nan_count(), 2u);
  EXPECT_EQ(h.total(), 1u);
  EXPECT_EQ(h.count(2), 1u);
  for (std::size_t b : {0u, 1u, 3u, 4u}) EXPECT_EQ(h.count(b), 0u);
  EXPECT_DOUBLE_EQ(h.fraction(2), 1.0);
}

// ------------------------------------------------------------------ Table ----

TEST(TableTest, AlignedPrintContainsCells) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(1.25, 2);
  t.row().cell("b").cell_int(42);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.25"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
}

TEST(TableTest, CsvEscaping) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  Table t({"x", "y"});
  t.row().cell("a,b").cell("c");
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "x,y\n\"a,b\",c\n");
}

TEST(TableTest, RejectsEmptyHeader) {
  EXPECT_THROW(Table({}), InvalidArgument);
}

// ---------------------------------------------------------------- Options ----

TEST(OptionsTest, ParsesAllForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta=2.5", "--flag", "pos1"};
  Options opts(5, argv);
  EXPECT_EQ(opts.get_int("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(opts.get_double("beta", 0.0), 2.5);
  EXPECT_TRUE(opts.get_bool("flag", false));
  ASSERT_EQ(opts.positional().size(), 1u);
  EXPECT_EQ(opts.positional()[0], "pos1");
}

TEST(OptionsTest, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  Options opts(1, argv);
  EXPECT_EQ(opts.get_int("k", 123), 123);
  EXPECT_DOUBLE_EQ(opts.get_double("x", 1.5), 1.5);
  EXPECT_EQ(opts.get("name", "d"), "d");
  EXPECT_FALSE(opts.has("k"));
}

TEST(OptionsTest, RejectsMalformedNumbers) {
  const char* argv[] = {"prog", "--k=abc"};
  Options opts(2, argv);
  EXPECT_THROW((void)opts.get_int("k", 0), InvalidArgument);
}

TEST(OptionsTest, UnknownOptionDetected) {
  const char* argv[] = {"prog", "--typo=1"};
  Options opts(2, argv);
  opts.declare("k", "budget");
  EXPECT_THROW(opts.check_unknown(), InvalidArgument);
}

TEST(OptionsTest, ResponseFileSuppliesDefaults) {
  const std::string path = temp_path("accu_options_test.opts");
  {
    std::ofstream os(path);
    os << "# experiment defaults\n"
          "\n"
          "k=250\n"
          "--scale=0.5\n"
          "verbose\n";
  }
  const char* argv[] = {"prog", "--k=99"};
  Options opts(2, argv);
  opts.load_defaults_file(path);
  EXPECT_EQ(opts.get_int("k", 0), 99);  // command line wins
  EXPECT_DOUBLE_EQ(opts.get_double("scale", 0.0), 0.5);
  EXPECT_TRUE(opts.get_bool("verbose", false));
}

TEST(OptionsTest, ResponseFileErrors) {
  const char* argv[] = {"prog"};
  Options opts(1, argv);
  EXPECT_THROW(opts.load_defaults_file("/nonexistent/opts"), IoError);
  const std::string path = temp_path("accu_options_bad.opts");
  {
    std::ofstream os(path);
    os << "=value\n";
  }
  EXPECT_THROW(opts.load_defaults_file(path), InvalidArgument);
}

TEST(OptionsTest, DeclaredOptionPasses) {
  const char* argv[] = {"prog", "--k=5"};
  Options opts(2, argv);
  opts.declare("k", "budget");
  EXPECT_NO_THROW(opts.check_unknown());
}

TEST(OptionsTest, ErrorsNameTheFlag) {
  const char* argv[] = {"prog", "--budget=abc", "--rate=xyz", "--flag=maybe"};
  Options opts(4, argv);
  try {
    (void)opts.get_int("budget", 0);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("--budget"), std::string::npos);
  }
  try {
    (void)opts.get_double("rate", 0.0);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("--rate"), std::string::npos);
  }
  try {
    (void)opts.get_bool("flag", false);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("--flag"), std::string::npos);
  }
}

TEST(OptionsTest, OutOfRangeValuesAreDiagnosed) {
  const char* argv[] = {"prog", "--k=99999999999999999999999",
                        "--x=1e999999"};
  Options opts(3, argv);
  try {
    (void)opts.get_int("k", 0);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
        << e.what();
  }
  try {
    (void)opts.get_double("x", 0.0);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
        << e.what();
  }
}

TEST(OptionsTest, UnknownOptionSuggestsNearestDeclared) {
  const char* argv[] = {"prog", "--fault-rte=0.1"};
  Options opts(2, argv);
  opts.declare("fault-rate", "fault probability").declare("k", "budget");
  try {
    opts.check_unknown();
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--fault-rte"), std::string::npos) << what;
    EXPECT_NE(what.find("did you mean --fault-rate?"), std::string::npos)
        << what;
  }
}

// ---------------------------------------------------------------- Backoff ----

TEST(BackoffTest, NonePolicyNeverRetries) {
  const RetryPolicy policy = RetryPolicy::none();
  EXPECT_FALSE(policy.should_retry(1));
  EXPECT_STREQ(policy.name(), "none");
}

TEST(BackoffTest, FixedPolicyDelaysAndBudget) {
  const RetryPolicy policy = RetryPolicy::fixed(/*retries=*/2, /*every=*/4);
  EXPECT_TRUE(policy.should_retry(1));
  EXPECT_TRUE(policy.should_retry(2));
  EXPECT_FALSE(policy.should_retry(3));
  Rng rng(1);
  EXPECT_EQ(policy.delay(1, rng), 4u);
  EXPECT_EQ(policy.delay(2, rng), 4u);  // fixed: no growth, no jitter
}

TEST(BackoffTest, ExponentialJitterStaysInWindow) {
  const RetryPolicy policy =
      RetryPolicy::exponential_jitter(/*retries=*/6, /*base=*/2, /*cap=*/16);
  Rng rng(7);
  for (std::uint32_t attempt = 1; attempt <= 6; ++attempt) {
    const std::uint32_t window =
        std::min<std::uint32_t>(16, 2u << (attempt - 1));
    for (int i = 0; i < 200; ++i) {
      const std::uint32_t d = policy.delay(attempt, rng);
      EXPECT_GE(d, 1u);
      EXPECT_LE(d, window) << "attempt " << attempt;
    }
  }
  // Large attempt numbers saturate at the cap instead of overflowing.
  EXPECT_LE(policy.delay(40, rng), 16u);
}

TEST(BackoffTest, JitterIsDeterministicGivenRng) {
  const RetryPolicy policy = RetryPolicy::exponential_jitter(3);
  Rng a(5), b(5);
  for (std::uint32_t attempt = 1; attempt <= 3; ++attempt) {
    EXPECT_EQ(policy.delay(attempt, a), policy.delay(attempt, b));
  }
}

TEST(BackoffTest, ParseAcceptsKnownSpecs) {
  EXPECT_EQ(RetryPolicy::parse("none").kind, RetryKind::kNone);
  EXPECT_EQ(RetryPolicy::parse("fixed").kind, RetryKind::kFixed);
  EXPECT_EQ(RetryPolicy::parse("exp").kind, RetryKind::kExponentialJitter);
  EXPECT_EQ(RetryPolicy::parse("exponential").kind,
            RetryKind::kExponentialJitter);
  EXPECT_EQ(RetryPolicy::parse("backoff").kind,
            RetryKind::kExponentialJitter);
  try {
    (void)RetryPolicy::parse("sometimes");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("'sometimes'"), std::string::npos);
  }
}

TEST(BackoffTest, AstronomicalAttemptCountsSaturateAtCap) {
  // Regression: the delay computation must cap the doubling *before*
  // computing base·2^(attempt-1); a naive shift would overflow long before
  // attempt counts like these.
  const RetryPolicy policy =
      RetryPolicy::exponential_jitter(/*retries=*/3, /*base=*/3, /*cap=*/500);
  Rng rng(11);
  for (const std::uint32_t attempt :
       {31u, 32u, 33u, 64u, 100000u, 0xffffffffu}) {
    const std::uint32_t d = policy.delay(attempt, rng);
    EXPECT_GE(d, 1u) << "attempt " << attempt;
    EXPECT_LE(d, 500u) << "attempt " << attempt;
  }
  // Once saturated, every attempt draws from the identical [1, cap] window:
  // equal rng states must produce equal delays regardless of the attempt.
  Rng a(99), b(99);
  EXPECT_EQ(policy.delay(50, a), policy.delay(0xffffffffu, b));
}

// ---------------------------------------------------------------- CRC32 ----

TEST(Crc32Test, MatchesKnownAnswerVectors) {
  // The canonical IEEE 802.3 check value.
  EXPECT_EQ(crc32(std::string_view("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(std::string_view("")), 0u);
  EXPECT_EQ(crc32(std::string_view("a")), 0xE8B7BE43u);
}

TEST(Crc32Test, IncrementalChainingEqualsOneShot) {
  const std::string data = "begin 3\nt 0 17 1 0 0 0 42.5\nend 3\n";
  const std::uint32_t whole = crc32(std::string_view(data));
  std::uint32_t chained = 0;
  for (const char c : data) chained = crc32(&c, 1, chained);
  EXPECT_EQ(chained, whole);
  // Any single-bit flip must change the checksum.
  std::string flipped = data;
  flipped[10] = static_cast<char>(flipped[10] ^ 0x01);
  EXPECT_NE(crc32(std::string_view(flipped)), whole);
}

// Eight bytes per step plus a byte tail: every length and start alignment
// must give the bit-at-a-time definition's value, one-shot and chained.
TEST(Crc32Test, SlicedPathMatchesBitwiseDefinition) {
  auto bitwise = [](const unsigned char* p, std::size_t n) {
    std::uint32_t c = 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i) {
      c ^= p[i];
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
    }
    return c ^ 0xffffffffu;
  };
  Rng rng(32);
  std::vector<unsigned char> buf(320);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng());
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t n = 0; start + n <= buf.size(); n += 1 + n / 16) {
      const unsigned char* p = buf.data() + start;
      const std::uint32_t want = bitwise(p, n);
      EXPECT_EQ(crc32(p, n), want) << "start " << start << " len " << n;
      const std::size_t split = n / 3;
      EXPECT_EQ(crc32(p + split, n - split, crc32(p, split)), want);
    }
  }
}

// ----------------------------------------------------------- atomic file ----

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream out;
  out << is.rdbuf();
  return out.str();
}

TEST(AtomicFileTest, WriteFileAtomicCreatesAndReplaces) {
  const std::string path = temp_path("accu_atomic.txt");
  write_file_atomic(path, "first\n");
  EXPECT_EQ(slurp(path), "first\n");
  write_file_atomic(path, "second, longer content\n");
  EXPECT_EQ(slurp(path), "second, longer content\n");
}

TEST(AtomicFileTest, TruncateFileDropsTheTail) {
  const std::string path = temp_path("accu_truncate.txt");
  write_file_atomic(path, "keep this|drop this");
  truncate_file(path, 9);
  EXPECT_EQ(slurp(path), "keep this");
}

TEST(AtomicFileTest, FsyncDirFlushesARealDirectory) {
  // The helper behind durable renames/creates: it must succeed on a real
  // directory and report (not throw) failure on a bogus path, since every
  // caller treats directory fsync as best effort.
  EXPECT_TRUE(fsync_dir(testing::TempDir()));
  EXPECT_FALSE(fsync_dir(temp_path("no_such_dir_accu")));
}

TEST(AtomicFileTest, FsyncParentDirResolvesTheContainingDirectory) {
  const std::string path = temp_path("accu_parent_sync.txt");
  write_file_atomic(path, "x");
  EXPECT_TRUE(fsync_parent_dir(path));
  EXPECT_FALSE(fsync_parent_dir(temp_path("no_such_dir_accu") + "/file.txt"));
  // A bare filename's parent is the working directory.
  EXPECT_TRUE(fsync_parent_dir("bare_name_without_slash"));
}

TEST(DurableAppenderTest, CreatingAnAppendFileSyncsItsDirectory) {
  // A journal created by open() must be findable after a power loss: the
  // open fsyncs the parent directory, not just (later) the file bytes.
  const std::string path = temp_path("accu_append_create.txt");
  DurableAppender out;
  out.open(path);
  ASSERT_TRUE(out.is_open());
  out.append("record\n");
  out.sync();
  out.close();
  EXPECT_EQ(slurp(path), "record\n");
}

TEST(DurableAppenderTest, AppendsSyncsAndReportsSize) {
  const std::string path = temp_path("accu_append.txt");
  DurableAppender out;
  EXPECT_FALSE(out.is_open());
  out.open(path);
  ASSERT_TRUE(out.is_open());
  out.append("one\n");
  out.sync();
  out.append("two\n");
  EXPECT_EQ(out.size(), 8u);
  out.close();
  EXPECT_FALSE(out.is_open());
  EXPECT_EQ(slurp(path), "one\ntwo\n");
  // Re-opening appends after the existing content.
  DurableAppender again;
  again.open(path);
  again.append("three\n");
  again.close();
  EXPECT_EQ(slurp(path), "one\ntwo\nthree\n");
}

// ------------------------------------------------------------- pid lock ----

TEST(PidFileTest, AcquireRecordsPidAndExcludesSecondHolder) {
  const std::string path = temp_path("accu_pidfile.lock");
  PidFile first;
  ASSERT_TRUE(first.try_acquire(path));
  EXPECT_TRUE(first.held());
  EXPECT_GT(PidFile::read_pid(path), 0);
  // flock is per open-file-description, so a second holder — even in the
  // same process — is refused while the first lives.
  PidFile second;
  EXPECT_FALSE(second.try_acquire(path));
  first.release();
  EXPECT_FALSE(first.held());
  // A clean release removes the file and frees the lock for successors.
  EXPECT_EQ(PidFile::read_pid(path), 0);
  EXPECT_TRUE(second.try_acquire(path));
  second.release();
}

TEST(PidFileTest, ReadPidOnMissingOrGarbageFileIsZero) {
  const std::string path = temp_path("accu_pidfile_garbage.lock");
  EXPECT_EQ(PidFile::read_pid(path), 0);
  write_file_atomic(path, "not a pid\n");
  EXPECT_EQ(PidFile::read_pid(path), 0);
}

// ------------------------------------------------------------ exit codes ----

TEST(ExitCodesTest, ContractValuesAreStable) {
  // Shell scripts (tools/ci.sh) branch on these exact integers.
  EXPECT_EQ(exit_code::kOk, 0);
  EXPECT_EQ(exit_code::kFailure, 1);
  EXPECT_EQ(exit_code::kUsage, 2);
  EXPECT_EQ(exit_code::kMissingCells, 3);
  EXPECT_EQ(exit_code::kQuarantined, 4);
  EXPECT_EQ(exit_code::kAlreadyRunning, 5);
  EXPECT_EQ(exit_code::kInterrupted, 130);
}

// ---------------------------------------------------------- cancellation ----

TEST(CancelTest, CheckPassesUntilCancelled) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_NO_THROW(token.check());
  token.cancel(CancelReason::kInterrupt);
  EXPECT_TRUE(token.cancelled());
  try {
    token.check();
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::kInterrupt);
  }
}

TEST(CancelTest, FirstReasonWins) {
  CancelToken token;
  token.cancel(CancelReason::kDeadline);
  token.cancel(CancelReason::kInterrupt);  // too late: no effect
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);
}

TEST(CancelTest, DeadlineSelfExpiresAndClearRearms) {
  CancelToken token;
  token.set_deadline_after(std::chrono::milliseconds(0));
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kDeadline);
  token.clear();
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), CancelReason::kNone);
  // A generous deadline does not fire.
  token.set_deadline_after(std::chrono::hours(1));
  EXPECT_FALSE(token.cancelled());
}

}  // namespace
}  // namespace accu::util
