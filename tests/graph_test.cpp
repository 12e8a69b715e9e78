// Unit tests for the graph substrate: CSR invariants, builder options,
// generators (including statistical shape), I/O round-trips, stats, and the
// scaled Table IV dataset registry.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/graph_stats.hpp"
#include "graph/io.hpp"
#include "partition/io.hpp"

namespace fw::graph {
namespace {

CsrGraph triangle() {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 0);
  return std::move(b).build();
}

TEST(Csr, BasicAccessors) {
  const CsrGraph g = triangle();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.out_degree(0), 1u);
  EXPECT_EQ(g.neighbors(0)[0], 1u);
  EXPECT_TRUE(g.validate().empty());
}

TEST(Csr, InDegrees) {
  GraphBuilder b(4);
  b.add_edge(0, 3);
  b.add_edge(1, 3);
  b.add_edge(2, 3);
  const CsrGraph g = std::move(b).build();
  const auto in = g.compute_in_degrees();
  EXPECT_EQ(in[3], 3u);
  EXPECT_EQ(in[0], 0u);
}

TEST(Csr, RejectsMalformedArrays) {
  EXPECT_THROW(CsrGraph({}, {}), std::invalid_argument);
  EXPECT_THROW(CsrGraph({0, 2}, {1}), std::invalid_argument);           // count mismatch
  EXPECT_THROW(CsrGraph({0, 1}, {0}, {1.0f, 2.0f}), std::invalid_argument);
  EXPECT_THROW(CsrGraph({0, 1}, {0}, {0.0f}), std::invalid_argument);
  EXPECT_THROW(CsrGraph({0, 1}, {0}, {std::numeric_limits<float>::infinity()}),
               std::invalid_argument);
}

TEST(Csr, ValidateCatchesOutOfRangeEdge) {
  // Target 5 in a 1-vertex graph: rejected at construction, so no engine
  // can ever read the out-of-range vertex.
  EXPECT_THROW(CsrGraph({0, 1}, {5}), std::invalid_argument);
}

TEST(Csr, RejectsNonMonotoneOffsets) {
  // offsets[2] < offsets[1] would give vertex 1 an out-degree of -1.
  try {
    const CsrGraph g({0, 2, 1, 2}, {1, 2});
    FAIL() << "non-monotone offsets loaded";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("offsets not monotone at 2"),
              std::string::npos)
        << e.what();
  }
}

TEST(Csr, IdBytesSwitchesAt32Bits) {
  const CsrGraph g = triangle();
  EXPECT_EQ(g.id_bytes(), 4u);
}

TEST(Csr, SizeAccounting) {
  const CsrGraph g = triangle();
  EXPECT_EQ(g.csr_size_bytes(), (3 + 1) * 4u + 3 * 4u);
  EXPECT_GT(g.text_size_bytes(), 0u);
}

TEST(Builder, SortsNeighbors) {
  GraphBuilder b(3);
  b.add_edge(0, 2);
  b.add_edge(0, 1);
  const CsrGraph g = std::move(b).build();
  EXPECT_EQ(g.neighbors(0)[0], 1u);
  EXPECT_EQ(g.neighbors(0)[1], 2u);
}

TEST(Builder, Deduplicates) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  b.add_edge(0, 1);
  BuildOptions opts;
  opts.deduplicate = true;
  const CsrGraph g = std::move(b).build(opts);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Builder, DropsSelfLoops) {
  GraphBuilder b(2);
  b.add_edge(0, 0);
  b.add_edge(0, 1);
  BuildOptions opts;
  opts.drop_self_loops = true;
  const CsrGraph g = std::move(b).build(opts);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(Builder, Symmetrizes) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  BuildOptions opts;
  opts.symmetrize = true;
  const CsrGraph g = std::move(b).build(opts);
  EXPECT_EQ(g.out_degree(0), 1u);
  EXPECT_EQ(g.out_degree(1), 1u);
}

TEST(Builder, KeepsWeights) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 2.5f);
  BuildOptions opts;
  opts.keep_weights = true;
  const CsrGraph g = std::move(b).build(opts);
  ASSERT_TRUE(g.weighted());
  EXPECT_FLOAT_EQ(g.edge_weights(0)[0], 2.5f);
}

TEST(Builder, RejectsOutOfRangeEndpoint) {
  GraphBuilder b(2);
  EXPECT_THROW(b.add_edge(0, 2), std::out_of_range);
}

// --- Generators ------------------------------------------------------------

TEST(Rmat, ProducesRequestedSize) {
  RmatParams p;
  p.num_vertices = 1 << 10;
  p.num_edges = 10'000;
  p.seed = 9;
  const CsrGraph g = generate_rmat(p);
  EXPECT_EQ(g.num_vertices(), 1u << 10);
  EXPECT_EQ(g.num_edges(), 10'000u);
  EXPECT_TRUE(g.validate().empty());
}

TEST(Rmat, DeterministicForSeed) {
  RmatParams p;
  p.num_vertices = 512;
  p.num_edges = 4096;
  p.seed = 42;
  const CsrGraph a = generate_rmat(p);
  const CsrGraph b = generate_rmat(p);
  EXPECT_EQ(a.edges(), b.edges());
  EXPECT_EQ(a.offsets(), b.offsets());
}

TEST(Rmat, SkewedDegreeDistribution) {
  RmatParams p;
  p.num_vertices = 1 << 12;
  p.num_edges = 1 << 16;
  p.seed = 3;
  const auto s = compute_stats(generate_rmat(p));
  // R-MAT with Graph500 params: top 1% of vertices own far more than 1%
  // of edges.
  EXPECT_GT(s.top1pct_edge_share, 0.10);
}

TEST(Rmat, WeightedEmitsPositiveWeights) {
  RmatParams p;
  p.num_vertices = 256;
  p.num_edges = 2048;
  p.weighted = true;
  const CsrGraph g = generate_rmat(p);
  ASSERT_TRUE(g.weighted());
  EXPECT_TRUE(g.validate().empty());  // validate() checks weight positivity
}

TEST(ErdosRenyi, NearUniformDegrees) {
  ErdosRenyiParams p;
  p.num_vertices = 1 << 12;
  p.num_edges = 1 << 16;
  const auto s = compute_stats(generate_erdos_renyi(p));
  // Uniform graph: top 1% of vertices own close to their fair share.
  EXPECT_LT(s.top1pct_edge_share, 0.05);
}

TEST(Zipf, PowerLawOutDegrees) {
  ZipfParams p;
  p.num_vertices = 1 << 12;
  p.num_edges = 1 << 16;
  p.exponent = 1.5;
  const auto g = generate_zipf(p);
  EXPECT_EQ(g.num_edges(), p.num_edges);
  const auto s = compute_stats(g);
  EXPECT_GT(s.top1pct_edge_share, 0.3);
  EXPECT_GT(s.max_out_degree, 100u * static_cast<EdgeId>(s.avg_out_degree));
}

TEST(ZipfSampler, PrefersLowRanks) {
  ZipfSampler sampler(1000, 1.5);
  Xoshiro256 rng(1);
  std::uint64_t low = 0;
  for (int i = 0; i < 10'000; ++i) {
    if (sampler.sample(rng) < 10) ++low;
  }
  EXPECT_GT(low, 3000u);  // top 1% of ranks get a large share
}

// --- I/O -------------------------------------------------------------------

TEST(Io, BinaryRoundTrip) {
  RmatParams p;
  p.num_vertices = 256;
  p.num_edges = 2048;
  p.weighted = true;
  const CsrGraph g = generate_rmat(p);
  std::stringstream ss;
  save_binary(g, ss);
  const CsrGraph g2 = load_binary(ss);
  EXPECT_EQ(g.offsets(), g2.offsets());
  EXPECT_EQ(g.edges(), g2.edges());
  EXPECT_EQ(g.weights(), g2.weights());
}

TEST(Io, BinaryRejectsBadMagic) {
  std::stringstream ss;
  ss << "NOTAGRAPH-------";
  EXPECT_THROW(load_binary(ss), std::runtime_error);
}

/// Graph-binary bytes whose offsets header claims 2^50 entries (8 PiB)
/// followed by a few real bytes: a corrupt length, not a real array.
std::string oversized_offsets_header() {
  std::string bytes = "FWGRAPH1";
  const std::uint64_t n = std::uint64_t{1} << 50;
  bytes.append(reinterpret_cast<const char*>(&n), sizeof(n));
  bytes.append(16, '\0');
  return bytes;
}

/// Fails the test unless `fn` throws a runtime_error that says "truncated".
template <class F>
void expect_truncated(F&& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos) << e.what();
    return;
  }
  ADD_FAILURE() << "no runtime_error thrown";
}

TEST(Io, BinaryRejectsOversizedArrayLengthAsTruncated) {
  std::stringstream ss(oversized_offsets_header());
  expect_truncated([&] { (void)load_binary(ss); });
}

TEST(Io, PartitionBundleRejectsOversizedGraphArrayAsTruncated) {
  std::string bytes = "FWPART01";
  auto put = [&bytes](const auto& v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(std::uint64_t{16384});  // block capacity
  put(std::uint32_t{2048});   // subgraphs per partition
  put(std::uint32_t{64});     // subgraphs per range
  put(std::uint8_t{0});       // unweighted
  put(std::uint64_t{1});      // expected subgraphs
  put(std::uint64_t{1});      // expected partitions
  bytes += oversized_offsets_header();
  std::stringstream ss(bytes);
  expect_truncated([&] { (void)partition::load_partitioned(ss); });
}

/// A read-only stream buffer that cannot seek, like a pipe.
class PipeBuf : public std::streambuf {
 public:
  explicit PipeBuf(std::string bytes) : bytes_(std::move(bytes)) {
    setg(bytes_.data(), bytes_.data(), bytes_.data() + bytes_.size());
  }

 private:
  std::string bytes_;
};

TEST(Io, BinaryRejectsUnseekableStream) {
  // Length prefixes are checked against the bytes left, which needs a seek.
  std::stringstream ss;
  save_binary(triangle(), ss);
  PipeBuf pipe(ss.str());
  std::istream is(&pipe);
  try {
    (void)load_binary(is);
    ADD_FAILURE() << "no runtime_error thrown";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot seek"), std::string::npos) << e.what();
  }
}

TEST(Io, EdgeListRoundTrip) {
  const CsrGraph g = triangle();
  std::stringstream ss;
  save_edge_list(g, ss);
  const CsrGraph g2 = load_edge_list(ss);
  EXPECT_EQ(g.offsets(), g2.offsets());
  EXPECT_EQ(g.edges(), g2.edges());
}

TEST(Io, EdgeListSkipsComments) {
  std::stringstream ss("# header\n0 1\n1 0\n");
  const CsrGraph g = load_edge_list(ss);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(Io, EdgeListParsesWeights) {
  std::stringstream ss("0 1 2.5\n");
  const CsrGraph g = load_edge_list(ss);
  ASSERT_TRUE(g.weighted());
  EXPECT_FLOAT_EQ(g.edge_weights(0)[0], 2.5f);
}

TEST(Io, EdgeListRejectsGarbage) {
  std::stringstream ss("zero one\n");
  EXPECT_THROW(load_edge_list(ss), std::runtime_error);
}

// --- Datasets ----------------------------------------------------------------

TEST(Datasets, RegistryHasAllFive) {
  EXPECT_EQ(all_datasets().size(), 5u);
  EXPECT_EQ(dataset_info(DatasetId::CW).abbrev, "CW");
  EXPECT_EQ(dataset_info(DatasetId::TT).paper.edges, "1.46B");
}

struct DatasetCase {
  DatasetId id;
  const char* abbrev;
};

class DatasetShape : public ::testing::TestWithParam<DatasetCase> {};

TEST_P(DatasetShape, TestScaleIsValidAndDeterministic) {
  const auto g = make_dataset(GetParam().id, Scale::kTest);
  EXPECT_TRUE(g.validate().empty());
  EXPECT_GT(g.num_edges(), 0u);
  const auto g2 = make_dataset(GetParam().id, Scale::kTest);
  EXPECT_EQ(g.edges(), g2.edges());
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, DatasetShape,
                         ::testing::Values(DatasetCase{DatasetId::TT, "TT"},
                                           DatasetCase{DatasetId::FS, "FS"},
                                           DatasetCase{DatasetId::CW, "CW"},
                                           DatasetCase{DatasetId::R2B, "R2B"},
                                           DatasetCase{DatasetId::R8B, "R8B"}),
                         [](const auto& param_info) { return param_info.param.abbrev; });

TEST(Datasets, SizeOrderingMatchesPaper) {
  // CSR size ordering in Table IV: TT < R2B < FS < R8B < CW.
  const auto tt = make_dataset(DatasetId::TT, Scale::kTest).csr_size_bytes();
  const auto r2b = make_dataset(DatasetId::R2B, Scale::kTest).csr_size_bytes();
  const auto fs = make_dataset(DatasetId::FS, Scale::kTest).csr_size_bytes();
  const auto r8b = make_dataset(DatasetId::R8B, Scale::kTest).csr_size_bytes();
  const auto cw = make_dataset(DatasetId::CW, Scale::kTest).csr_size_bytes();
  EXPECT_LT(tt, fs);
  EXPECT_LT(fs, r8b);
  EXPECT_LT(r2b, fs);
  EXPECT_LT(r8b, cw);
}

TEST(Datasets, ClueWebIsSparse) {
  const auto s = compute_stats(make_dataset(DatasetId::CW, Scale::kTest));
  EXPECT_LT(s.avg_out_degree, 4.0);  // web-graph sparsity (paper: 1.66)
}

TEST(Datasets, TwitterIsMostSkewed) {
  const auto tt = compute_stats(make_dataset(DatasetId::TT, Scale::kTest));
  const auto cw = compute_stats(make_dataset(DatasetId::CW, Scale::kTest));
  EXPECT_GT(tt.top1pct_edge_share, cw.top1pct_edge_share);
}

TEST(Datasets, WalkCountsFollowPaperRatios) {
  // Paper: 10^9 walks for CW vs 4x10^8 for the rest (2.5x).
  const auto cw = default_walk_count(DatasetId::CW, Scale::kBench);
  const auto tt = default_walk_count(DatasetId::TT, Scale::kBench);
  EXPECT_EQ(cw, tt * 10 / 4);
}

TEST(Stats, ZeroDegreeCounting) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  const auto s = compute_stats(std::move(b).build());
  EXPECT_EQ(s.zero_out_degree_vertices, 3u);
  EXPECT_EQ(s.max_out_degree, 1u);
}

}  // namespace
}  // namespace fw::graph
