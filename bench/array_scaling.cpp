// Multi-SSD array scale-out benchmark: aggregate simulated walks/sec at
// 1/2/4/8 devices plus the forwarding traffic the host fabric carried.
//
// Every number is simulated (exec time, walks/sec, forwarded walks, DES
// windows and busy shard passes), so each point is bit-deterministic for a
// fixed seed and machine-independent; the bench re-runs every point at
// --sim-threads 1 and 8 and byte-compares the serialized reports
// (determinism_ok). bench/regression.py gates all of it exactly on every
// host, plus a floor on the 4-device scaling ratio.
//
// Results land in the "array_scaling" section of BENCH_sim.json:
// --merge-into splices the section into an existing fw-bench-sim/2 report,
// --out writes a standalone report.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "accel/array/board_array.hpp"
#include "accel/builder.hpp"
#include "accel/report.hpp"
#include "bench_common.hpp"
#include "common/options.hpp"
#include "common/table.hpp"
#include "graph/datasets.hpp"
#include "partition/partitioned_graph.hpp"

namespace fw::bench {
namespace {

struct Point {
  std::uint32_t devices = 1;
  Tick exec = 0;
  double walks_per_sec = 0.0;
  std::uint64_t forwarded_walks = 0;
  std::uint64_t forward_batches = 0;
  std::uint64_t forwarded_bytes = 0;
  std::uint64_t timeout_flushes = 0;
  std::uint64_t windows = 0;       ///< DES windows (barrier rounds)
  std::uint64_t shard_passes = 0;  ///< shard drain passes that ran an event
  bool determinism_ok = false;
};

accel::SimulationConfig array_config(std::uint32_t devices, std::uint64_t walks,
                                     std::uint64_t seed, std::uint32_t sim_threads) {
  accel::SimulationConfig cfg;
  cfg.ssd = bench_ssd();
  cfg.accel = accel::bench_accel_config();
  cfg.record_visits = false;
  cfg.spec.num_walks = walks;
  cfg.spec.length = 6;
  cfg.spec.seed = seed;
  cfg.sim_threads = sim_threads;
  cfg.array.devices = devices;
  return cfg;
}

Point run_point(const partition::PartitionedGraph& pg, std::uint32_t devices,
                std::uint64_t walks, std::uint64_t seed) {
  accel::array::BoardArray a1(pg, array_config(devices, walks, seed, 1));
  const accel::array::ArrayResult r1 = a1.run();
  accel::array::BoardArray a8(pg, array_config(devices, walks, seed, 8));
  const accel::array::ArrayResult r8 = a8.run();

  Point p;
  p.devices = devices;
  p.exec = r1.exec_time;
  p.walks_per_sec = r1.walks_per_sec();
  p.forwarded_walks = r1.fabric.walks;
  p.forward_batches = r1.fabric.batches;
  p.forwarded_bytes = r1.fabric.bytes;
  p.timeout_flushes = r1.metrics.forward_timeout_flushes;
  p.windows = r1.windows;
  p.shard_passes = r1.shard_passes;
  p.determinism_ok = accel::to_json("array", r1) == accel::to_json("array", r8) &&
                     r1.windows == r8.windows && r1.shard_passes == r8.shard_passes;
  return p;
}

std::string section_json(const std::vector<Point>& points, const std::string& dataset,
                         std::uint64_t walks, std::uint64_t seed,
                         std::uint32_t hw_threads, bool determinism_ok,
                         double scaling_4dev) {
  std::ostringstream os;
  os << "{\n"
     << "    \"dataset\": \"" << dataset << "\",\n"
     << "    \"walks\": " << walks << ",\n"
     << "    \"seed\": " << seed << ",\n"
     << "    \"hw_threads\": " << hw_threads << ",\n"
     << "    \"determinism_ok\": " << (determinism_ok ? "true" : "false") << ",\n"
     << "    \"scaling_4dev\": " << scaling_4dev << ",\n"
     << "    \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    os << "      {\"devices\": " << p.devices << ", \"exec_ns\": " << p.exec
       << ", \"walks_per_sec\": " << p.walks_per_sec
       << ", \"forwarded_walks\": " << p.forwarded_walks
       << ", \"forward_batches\": " << p.forward_batches
       << ", \"forwarded_bytes\": " << p.forwarded_bytes
       << ", \"timeout_flushes\": " << p.timeout_flushes
       << ", \"windows\": " << p.windows << ", \"shard_passes\": " << p.shard_passes
       << ", \"determinism_ok\": " << (p.determinism_ok ? "true" : "false") << "}"
       << (i + 1 < points.size() ? ",\n" : "\n");
  }
  os << "    ]\n"
     << "  }";
  return os.str();
}

/// Splice `section` into an existing fw-bench-sim/2 report as the trailing
/// "array_scaling" key, replacing any earlier section.
int merge_into(const std::string& path, const std::string& section) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "array_scaling: cannot read " << path << " (run sim_hotpath first)\n";
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();

  std::size_t cut = text.find(",\n  \"array_scaling\":");
  if (cut == std::string::npos) {
    cut = text.rfind('}');
    if (cut == std::string::npos) {
      std::cerr << "array_scaling: " << path << " is not a JSON report\n";
      return 1;
    }
    while (cut > 0 && (text[cut - 1] == '\n' || text[cut - 1] == ' ')) --cut;
  }
  text.resize(cut);
  text += ",\n  \"array_scaling\": " + section + "\n}\n";

  std::ofstream out(path);
  if (!out) {
    std::cerr << "array_scaling: cannot write " << path << "\n";
    return 1;
  }
  out << text;
  std::cout << "merged array_scaling section into " << path << "\n";
  return 0;
}

}  // namespace
}  // namespace fw::bench

int main(int argc, char** argv) {
  using namespace fw;
  using namespace fw::bench;

  std::string out_path;
  std::string merge_path;
  std::string dataset = "TT";
  std::uint64_t walks = 50000;
  std::uint64_t seed = bench_seed();
  OptionSet opts;
  opts.opt("--out", &out_path, "FILE", "write a standalone array_scaling report");
  opts.opt("--merge-into", &merge_path, "FILE",
           "splice the array_scaling section into an\n"
           "existing fw-bench-sim/2 report (BENCH_sim.json)");
  opts.opt("--dataset", &dataset, "TT|FS|CW|R2B|R8B", "dataset (default TT)");
  opts.opt("--walks", &walks, "N", "walks per point (default 50000)");
  opts.opt("--seed", &seed, "N", "walk RNG seed");
  opts.parse_or_exit(argc, argv,
                     "Multi-SSD array scale-out: walks/sec at 1/2/4/8 devices");

  print_banner("Multi-SSD array — aggregate walks/sec and fabric traffic vs devices",
               "scale-out extension (not a paper figure)");

  graph::DatasetId id = graph::DatasetId::TT;
  for (const auto& info : graph::all_datasets()) {
    if (info.abbrev == dataset) id = info.id;
  }
  const graph::CsrGraph g = graph::make_dataset(id, graph::Scale::kTest);
  // One partition per graph block and a fine 2 KiB block grain: ~50
  // partitions on the test-scale graph, so even the 8-device point gets a
  // balanced stripe (the round-robin device assignment needs partitions >>
  // devices or the largest per-board share caps the speedup). Identical for
  // every device count — only the device assignment varies.
  partition::PartitionConfig pc = bench_partition();
  pc.block_capacity_bytes = 2 * KiB;
  pc.subgraphs_per_partition = 1;
  const partition::PartitionedGraph pg(g, pc);
  std::cout << "graph: " << g.num_vertices() << " vertices, " << pg.num_partitions()
            << " partitions\n\n";

  const std::uint32_t hw_threads = std::thread::hardware_concurrency();
  std::vector<Point> points;
  TextTable table(
      {"devices", "exec", "walks/s", "fwd walks", "batches", "windows", "passes", "det"});
  for (const std::uint32_t d : {1u, 2u, 4u, 8u}) {
    const Point p = run_point(pg, d, walks, seed);
    table.add_row({std::to_string(p.devices), TextTable::time_ns(p.exec),
                   TextTable::num(p.walks_per_sec, 0), std::to_string(p.forwarded_walks),
                   std::to_string(p.forward_batches), std::to_string(p.windows),
                   std::to_string(p.shard_passes), p.determinism_ok ? "ok" : "FAIL"});
    points.push_back(p);
  }
  table.print(std::cout);

  bool determinism_ok = true;
  for (const Point& p : points) determinism_ok &= p.determinism_ok;
  const double scaling_4dev =
      points[0].walks_per_sec == 0.0 ? 0.0
                                     : points[2].walks_per_sec / points[0].walks_per_sec;
  std::cout << "\n4-device scaling: " << TextTable::num(scaling_4dev, 2)
            << "x single-device (simulated), determinism "
            << (determinism_ok ? "ok" : "FAIL") << "\n";
  if (!determinism_ok) return 1;

  const std::string section = section_json(points, dataset, walks, seed, hw_threads,
                                           determinism_ok, scaling_4dev);
  if (!merge_path.empty()) {
    if (const int rc = merge_into(merge_path, section); rc != 0) return rc;
  }
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << "{\n  \"schema\": \"fw-bench-sim/2\",\n  \"array_scaling\": " << section
        << "\n}\n";
    std::cout << "wrote " << out_path << "\n";
  }
  return 0;
}
