// Tests for ACCU instance serialization: exact round-trips (including the
// generalized cautious model), malformed-input rejection, and file I/O.

#include <gtest/gtest.h>

#include <sstream>

#include "core/instance_io.hpp"
#include "datasets/datasets.hpp"
#include "util/error.hpp"
#include "util/io_env.hpp"
#include "test_paths.hpp"

namespace accu {
namespace {

using test::temp_path;

void expect_same_instance(const AccuInstance& a, const AccuInstance& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.graph().num_edges(), b.graph().num_edges());
  for (EdgeId e = 0; e < a.graph().num_edges(); ++e) {
    const graph::EdgeEndpoints ep = a.graph().endpoints(e);
    const auto mirrored = b.graph().find_edge(ep.lo, ep.hi);
    ASSERT_TRUE(mirrored.has_value());
    EXPECT_DOUBLE_EQ(b.graph().edge_prob(*mirrored), a.graph().edge_prob(e));
  }
  for (NodeId u = 0; u < a.num_nodes(); ++u) {
    EXPECT_EQ(a.user_class(u), b.user_class(u));
    EXPECT_DOUBLE_EQ(a.accept_prob(u), b.accept_prob(u));
    EXPECT_EQ(a.threshold(u), b.threshold(u));
    EXPECT_DOUBLE_EQ(a.benefits().friend_benefit(u),
                     b.benefits().friend_benefit(u));
    EXPECT_DOUBLE_EQ(a.benefits().fof_benefit(u),
                     b.benefits().fof_benefit(u));
    if (a.is_cautious(u)) {
      EXPECT_DOUBLE_EQ(a.cautious_accept_prob(u, false),
                       b.cautious_accept_prob(u, false));
      EXPECT_DOUBLE_EQ(a.cautious_accept_prob(u, true),
                       b.cautious_accept_prob(u, true));
    }
  }
  EXPECT_EQ(a.has_generalized_cautious(), b.has_generalized_cautious());
}

TEST(InstanceIoTest, RoundTripDataset) {
  util::Rng rng(1);
  datasets::DatasetConfig config;
  config.scale = 0.05;
  config.num_cautious = 8;
  const AccuInstance original =
      datasets::make_dataset("facebook", config, rng);
  std::stringstream buffer;
  write_instance(original, buffer);
  const AccuInstance loaded = read_instance(buffer);
  expect_same_instance(original, loaded);
}

TEST(InstanceIoTest, RoundTripGeneralizedModel) {
  util::Rng rng(2);
  datasets::DatasetConfig config;
  config.scale = 0.05;
  config.num_cautious = 6;
  config.cautious_below_prob = 0.125;
  config.cautious_above_prob = 0.875;
  const AccuInstance original =
      datasets::make_dataset("facebook", config, rng);
  ASSERT_TRUE(original.has_generalized_cautious());
  std::stringstream buffer;
  write_instance(original, buffer);
  const AccuInstance loaded = read_instance(buffer);
  expect_same_instance(original, loaded);
}

TEST(InstanceIoTest, FileRoundTrip) {
  util::Rng rng(3);
  datasets::DatasetConfig config;
  config.scale = 0.05;
  config.num_cautious = 5;
  const AccuInstance original =
      datasets::make_dataset("twitter", config, rng);
  const std::string path = temp_path("accu_instance_test.accu");
  write_instance_file(original, path);
  const AccuInstance loaded = read_instance_file(path);
  expect_same_instance(original, loaded);
}

TEST(InstanceIoTest, CommentsAndBlankLinesIgnored) {
  std::stringstream in(
      "# a comment\n"
      "nodes 2 edges 1\n"
      "# another\n"
      "e 0 1 0.5\n"
      "n 0 R 0.5 1 2 1 0 1\n"
      "n 1 C 0 1 50 1 0 1\n");
  const AccuInstance instance = read_instance(in);
  EXPECT_EQ(instance.num_nodes(), 2u);
  EXPECT_TRUE(instance.is_cautious(1));
  EXPECT_DOUBLE_EQ(instance.benefits().friend_benefit(1), 50.0);
}

TEST(InstanceIoTest, RejectsMalformedInput) {
  {
    std::stringstream in("bogus\n");
    EXPECT_THROW(read_instance(in), IoError);
  }
  {
    std::stringstream in("nodes 2 edges 1\ne 0 5 0.5\n");
    EXPECT_THROW(read_instance(in), IoError);  // endpoint out of range
  }
  {
    std::stringstream in("nodes 2 edges 1\ne 0 1 1.5\n");
    EXPECT_THROW(read_instance(in), IoError);  // probability out of range
  }
  {
    std::stringstream in(
        "nodes 2 edges 2\ne 0 1 0.5\ne 1 0 0.5\n");
    EXPECT_THROW(read_instance(in), IoError);  // duplicate edge
  }
  {
    std::stringstream in("nodes 1 edges 0\nn 0 X 0.5 1 2 1 0 1\n");
    EXPECT_THROW(read_instance(in), IoError);  // bad class letter
  }
  {
    std::stringstream in(
        "nodes 2 edges 0\nn 0 R 0.5 1 2 1 0 1\nn 0 R 0.5 1 2 1 0 1\n");
    EXPECT_THROW(read_instance(in), IoError);  // duplicate node line
  }
  {
    std::stringstream in("nodes 2 edges 0\nn 0 R 0.5 1 2 1 0 1\n");
    EXPECT_THROW(read_instance(in), IoError);  // missing node line
  }
}

TEST(InstanceIoTest, RejectsSelfLoopWithLineNumber) {
  std::stringstream in(
      "nodes 2 edges 1\n"
      "e 1 1 0.5\n");
  try {
    (void)read_instance(in);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("self-loop"), std::string::npos) << what;
  }
}

TEST(InstanceIoTest, DuplicateEdgeDiagnosticNamesEndpoints) {
  std::stringstream in(
      "nodes 3 edges 2\n"
      "e 0 1 0.5\n"
      "e 1 0 0.25\n");  // same undirected pair, reversed
  try {
    (void)read_instance(in);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("duplicate"), std::string::npos) << what;
    EXPECT_NE(what.find("0"), std::string::npos) << what;
    EXPECT_NE(what.find("1"), std::string::npos) << what;
  }
}

TEST(InstanceIoTest, RejectsOverflowingCounts) {
  {
    // One past the uint32 id space: silently narrowing would wrap to 0.
    std::stringstream in("nodes 4294967295 edges 0\n");
    try {
      (void)read_instance(in);
      FAIL() << "expected IoError";
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find("exceeds"), std::string::npos)
          << e.what();
    }
  }
  {
    // 2^31 edges would overflow the 2m slot space.
    std::stringstream in("nodes 10 edges 2147483648\n");
    EXPECT_THROW(read_instance(in), IoError);
  }
  {
    // Far beyond 64 bits: must not wrap through unsigned long long either.
    std::stringstream in("nodes 99999999999999999999 edges 0\n");
    EXPECT_THROW(read_instance(in), IoError);
  }
}

TEST(InstanceIoTest, RejectsOutOfRangeTheta) {
  const auto expect_theta_rejected = [](const std::string& theta) {
    std::stringstream in(
        "nodes 2 edges 1\n"
        "e 0 1 0.5\n"
        "n 0 R 0.5 1 2 1 0 1\n"
        "n 1 C 0 " + theta + " 50 1 0 1\n");
    try {
      (void)read_instance(in);
      FAIL() << "expected IoError for theta=" << theta;
    } catch (const IoError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 4"), std::string::npos) << what;
      EXPECT_NE(what.find("theta"), std::string::npos) << what;
    }
  };
  // Each of these used to wrap silently through the uint32 cast.
  expect_theta_rejected("-1");
  expect_theta_rejected("4.3e9");
  expect_theta_rejected("1.5");
  expect_theta_rejected("nan");
}

TEST(InstanceIoTest, RejectsTrailingContent) {
  std::stringstream in(
      "nodes 2 edges 1\n"
      "e 0 1 0.5\n"
      "n 0 R 0.5 1 2 1 0 1\n"
      "n 1 R 0.5 1 2 1 0 1\n"
      "e 0 1 0.5\n");
  try {
    (void)read_instance(in);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("trailing"), std::string::npos)
        << e.what();
  }
}

TEST(InstanceIoTest, RejectsNonFiniteValues) {
  {
    std::stringstream in("nodes 2 edges 1\ne 0 1 nan\n");
    EXPECT_THROW(read_instance(in), IoError);  // NaN edge probability
  }
  {
    std::stringstream in("nodes 2 edges 1\ne 0 1 inf\n");
    EXPECT_THROW(read_instance(in), IoError);  // Inf edge probability
  }
  {
    std::stringstream in(
        "nodes 1 edges 0\nn 0 R nan 1 2 1 0 1\n");
    EXPECT_THROW(read_instance(in), IoError);  // NaN accept probability
  }
  {
    std::stringstream in(
        "nodes 1 edges 0\nn 0 R 0.5 1 inf 1 0 1\n");
    EXPECT_THROW(read_instance(in), IoError);  // Inf friend benefit
  }
  {
    std::stringstream in(
        "nodes 1 edges 0\nn 0 C 0 1 2 1 nan 1\n");
    EXPECT_THROW(read_instance(in), IoError);  // NaN q1
  }
  {
    std::stringstream in(
        "nodes 1 edges 0\nn 0 R 0.5 1 2 1 0 2.5\n");
    EXPECT_THROW(read_instance(in), IoError);  // q2 outside [0,1]
  }
}

TEST(InstanceIoTest, ErrorsCarryLineNumbers) {
  {
    // NaN node probability on (1-based) line 4.
    std::stringstream in(
        "nodes 2 edges 1\n"
        "e 0 1 0.5\n"
        "n 0 R 0.5 1 2 1 0 1\n"
        "n 1 R nan 1 2 1 0 1\n");
    try {
      (void)read_instance(in);
      FAIL() << "expected IoError";
    } catch (const IoError& e) {
      EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
          << e.what();
    }
  }
  {
    // Truncated edge section: the message names the last line read and
    // the shortfall.
    std::stringstream in("nodes 3 edges 2\ne 0 1 0.5\n");
    try {
      (void)read_instance(in);
      FAIL() << "expected IoError";
    } catch (const IoError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("truncated"), std::string::npos) << what;
      EXPECT_NE(what.find("expected 2 edge lines, got 1"), std::string::npos)
          << what;
    }
  }
}

TEST(InstanceIoTest, TruncatedNodeSectionNamesShortfall) {
  std::stringstream in(
      "nodes 2 edges 1\n"
      "e 0 1 0.5\n"
      "n 0 R 0.5 1 2 1 0 1\n");
  try {
    (void)read_instance(in);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("expected 2 node lines, got 1"), std::string::npos)
        << what;
  }
}

TEST(InstanceIoTest, ConstructorValidationStillApplies) {
  // A cautious user with an infeasible threshold round-trips into the
  // instance constructor's validation, not silent acceptance.
  std::stringstream in(
      "nodes 2 edges 1\n"
      "e 0 1 0.5\n"
      "n 0 R 0.5 1 2 1 0 1\n"
      "n 1 C 0 5 50 1 0 1\n");  // θ = 5 > degree
  EXPECT_THROW(read_instance(in), InvalidArgument);
}

TEST(InstanceIoTest, MissingFileThrows) {
  EXPECT_THROW(read_instance_file("/nonexistent/nope.accu"), IoError);
}

#ifdef ACCU_HAVE_POSIX_IO

AccuInstance small_instance(std::uint64_t seed) {
  util::Rng rng(seed);
  datasets::DatasetConfig config;
  config.scale = 0.05;
  config.num_cautious = 5;
  return datasets::make_dataset("facebook", config, rng);
}

TEST(InstanceIoTest, EnospcDuringWriteLeavesThePreviousFileIntact) {
  const std::string path = temp_path("accu_instance_enospc.accu");
  const AccuInstance first = small_instance(3);
  write_instance_file(first, path);
  {
    util::FaultyFs faulty;
    util::ScopedIoEnv scoped(faulty);
    faulty.disk_budget(64);  // the replacement tears off mid-write
    EXPECT_THROW(write_instance_file(small_instance(4), path),
                 DiskFullError);
    faulty.materialize_crash_state();
  }
  // Atomic replace: the torn temp never reached `path`.
  expect_same_instance(read_instance_file(path), first);
}

TEST(InstanceIoTest, ShortWritesStillProduceACompleteFile) {
  const std::string path = temp_path("accu_instance_short.accu");
  const AccuInstance original = small_instance(5);
  util::FaultyFs faulty;
  util::ScopedIoEnv scoped(faulty);
  faulty.short_write_cap(7);  // every write() advances at most 7 bytes
  write_instance_file(original, path);
  expect_same_instance(read_instance_file(path), original);
}

TEST(InstanceIoTest, FsyncFailureDuringWriteSurfacesAsSyncLost) {
  const std::string path = temp_path("accu_instance_sync.accu");
  const AccuInstance first = small_instance(6);
  write_instance_file(first, path);
  {
    util::FaultyFs faulty;
    util::ScopedIoEnv scoped(faulty);
    faulty.fail_fsync(faulty.sync_count() + 1);
    EXPECT_THROW(write_instance_file(small_instance(7), path),
                 SyncFailedError);
    faulty.materialize_crash_state();
  }
  expect_same_instance(read_instance_file(path), first);
}

#endif  // ACCU_HAVE_POSIX_IO

}  // namespace
}  // namespace accu
