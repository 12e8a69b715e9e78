#include "rw/model/walk_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/options.hpp"
#include "rw/model/registry.hpp"

namespace fw::rw {

WalkModel::WalkModel(const WalkSpec& spec) : stop_prob_(spec.stop_prob) {}

WalkModel::~WalkModel() = default;

std::uint64_t WalkModel::state_bytes(std::size_t /*id_bytes*/) const { return 0; }

std::uint64_t WalkModel::init_state() const { return 0; }

bool WalkModel::needs_weights() const { return false; }

bool WalkModel::needs_labels() const { return false; }

bool WalkModel::stop_before_hop(const Walk& /*w*/, Xoshiro256& rng) const {
  return stop_prob_ > 0.0 && rng.chance(stop_prob_);
}

WalkModel::Verdict WalkModel::update(Walk& /*w*/, VertexId /*next*/) const {
  return Verdict::kContinue;
}

namespace {

// ---------------------------------------------------------------------------
// Legacy models (byte-identity-pinned draw sequences)
// ---------------------------------------------------------------------------

/// First-order walk: uniform or ITS-biased neighbor choice, optional
/// geometric stop. Serves both deepwalk and flag-built (geometric) PPR.
class FirstOrderModel : public WalkModel {
 public:
  FirstOrderModel(const WalkSpec& spec, std::string_view name)
      : WalkModel(spec), name_(name), biased_(spec.biased) {}

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] bool needs_weights() const override { return biased_; }

  [[nodiscard]] SampleResult sample(const graph::CsrGraph& g, const ItsTable* its,
                                    const Gather& gv, const Walk& w,
                                    Xoshiro256& rng) const override {
    if (gv.dense) {
      return biased_ ? its->sample_slice(g, gv.vertex_first_edge, gv.begin, gv.end, rng)
                     : sample_unbiased_slice(g, gv.begin, gv.end, rng);
    }
    return biased_ ? its->sample(g, w.cur, rng) : sample_unbiased(g, w.cur, rng);
  }

 private:
  std::string_view name_;
  bool biased_;
};

/// node2vec: rejection sampling against the carried previous vertex, with
/// first-order fallback on the first hop and empty slices.
class SecondOrderModel : public FirstOrderModel {
 public:
  explicit SecondOrderModel(const WalkSpec& spec)
      : FirstOrderModel(spec, "node2vec"),
        p_(spec.second_order.p),
        q_(spec.second_order.q) {
    if (!(p_ > 0.0 && q_ > 0.0)) {  // also refuses NaN
      throw std::invalid_argument("node2vec: p and q must be > 0");
    }
  }

  [[nodiscard]] std::uint64_t state_bytes(std::size_t id_bytes) const override {
    return id_bytes;  // the previous vertex rides with the walk
  }
  [[nodiscard]] std::uint64_t init_state() const override { return kInvalidVertex; }

  [[nodiscard]] SampleResult sample(const graph::CsrGraph& g, const ItsTable* its,
                                    const Gather& gv, const Walk& w,
                                    Xoshiro256& rng) const override {
    if (w.state != kInvalidVertex && gv.end > gv.begin) {
      return sample_second_order(g, w.state, w.cur, gv.begin, gv.end, {p_, q_}, rng);
    }
    return FirstOrderModel::sample(g, its, gv, w, rng);
  }

  Verdict update(Walk& w, VertexId /*next*/) const override {
    w.state = w.cur;
    return Verdict::kContinue;
  }

 private:
  double p_;
  double q_;
};

// ---------------------------------------------------------------------------
// Plugin models
// ---------------------------------------------------------------------------

/// Variable-length PPR: the geometric stop draw is unchanged, but the walk
/// also carries its residual mass (1-stop)^hops and terminates once it
/// falls below eps — truncating the geometric tail deterministically.
class ResidualPprModel : public FirstOrderModel {
 public:
  explicit ResidualPprModel(const WalkSpec& spec)
      : FirstOrderModel(spec, "ppr"), eps_(spec.residual_eps) {
    if (eps_ <= 0.0 || eps_ >= 1.0) {
      throw std::invalid_argument("ppr: eps must be in (0, 1)");
    }
    if (stop_prob_ <= 0.0) {
      throw std::invalid_argument("ppr: stop_mode=residual requires stop > 0");
    }
  }

  [[nodiscard]] std::uint64_t state_bytes(std::size_t /*id_bytes*/) const override {
    return 4;  // fixed-point residual register (simulated at double precision)
  }
  [[nodiscard]] std::uint64_t init_state() const override {
    return std::bit_cast<std::uint64_t>(1.0);
  }

  Verdict update(Walk& w, VertexId /*next*/) const override {
    const double r = std::bit_cast<double>(w.state) * (1.0 - stop_prob_);
    w.state = std::bit_cast<std::uint64_t>(r);
    return r < eps_ ? Verdict::kTerminate : Verdict::kContinue;
  }

 private:
  double eps_;
};

/// Metapath walk over a labeled graph: hop k must land on a vertex labeled
/// pattern[(k+1) % |pattern|]; the choice is uniform among on-pattern
/// candidates in the gathered slice, and an off-pattern neighborhood is a
/// dead end (WalkSpec::dead_end applies).
class MetapathModel : public WalkModel {
 public:
  explicit MetapathModel(const WalkSpec& spec)
      : WalkModel(spec), pattern_(spec.metapath_pattern), length_(spec.length) {
    if (pattern_.empty()) {
      throw std::invalid_argument("metapath: empty label pattern");
    }
  }

  [[nodiscard]] std::string_view name() const override { return "metapath"; }
  [[nodiscard]] bool needs_labels() const override { return true; }

  [[nodiscard]] SampleResult sample(const graph::CsrGraph& g, const ItsTable* /*its*/,
                                    const Gather& gv, const Walk& w,
                                    Xoshiro256& rng) const override {
    SampleResult s;
    if (gv.end <= gv.begin) return s;
    const auto& labels = g.labels();
    const auto& edges = g.edges();
    const std::uint32_t hops_done = length_ - w.hops_left;
    const std::uint8_t want = pattern_[(hops_done + 1) % pattern_.size()];
    // 8-wide label comparator in the guider: one cycle per 8 candidates.
    s.search_steps = static_cast<std::uint32_t>((gv.end - gv.begin + 7) / 8);
    EdgeId matches = 0;
    for (EdgeId e = gv.begin; e < gv.end; ++e) {
      matches += labels[edges[e]] == want ? 1 : 0;
    }
    if (matches == 0) return s;
    std::uint64_t pick = rng.bounded(matches);
    for (EdgeId e = gv.begin; e < gv.end; ++e) {
      if (labels[edges[e]] == want && pick-- == 0) {
        s.next = edges[e];
        break;
      }
    }
    return s;
  }

 private:
  std::vector<std::uint8_t> pattern_;
  std::uint32_t length_;
};

/// Autoregressive second-order walk: proposals inside the previous hop's
/// neighborhood carry accept-weight alpha, all others 1-alpha, so
/// consecutive hops are correlated ("momentum" walks).
class AutoregModel : public WalkModel {
 public:
  explicit AutoregModel(const WalkSpec& spec)
      : WalkModel(spec), alpha_(spec.autoreg_alpha) {
    if (alpha_ <= 0.0 || alpha_ >= 1.0) {
      throw std::invalid_argument("autoreg: alpha must be in (0, 1)");
    }
  }

  [[nodiscard]] std::string_view name() const override { return "autoreg"; }
  [[nodiscard]] std::uint64_t state_bytes(std::size_t id_bytes) const override {
    return id_bytes;
  }
  [[nodiscard]] std::uint64_t init_state() const override { return kInvalidVertex; }

  [[nodiscard]] SampleResult sample(const graph::CsrGraph& g, const ItsTable* /*its*/,
                                    const Gather& gv, const Walk& w,
                                    Xoshiro256& rng) const override {
    if (w.state != kInvalidVertex && gv.end > gv.begin) {
      return sample_autoregressive(g, w.state, gv.begin, gv.end, alpha_, rng);
    }
    if (gv.dense) return sample_unbiased_slice(g, gv.begin, gv.end, rng);
    return sample_unbiased(g, w.cur, rng);
  }

  Verdict update(Walk& w, VertexId /*next*/) const override {
    w.state = w.cur;
    return Verdict::kContinue;
  }

 private:
  double alpha_;
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

[[noreturn]] void bad_value(std::string_view key, const std::string& why) {
  throw std::invalid_argument("key '" + std::string(key) + "': " + why);
}

double model_f64(std::string_view key, const std::string& v) {
  try {
    return OptionSet::to_f64(std::string(key), v);
  } catch (const std::invalid_argument&) {
    bad_value(key, "expected a finite number, got '" + v + "'");
  }
}

double model_f64_positive(std::string_view key, const std::string& v) {
  const double r = model_f64(key, v);
  if (r <= 0.0) bad_value(key, "must be > 0");
  return r;
}

double model_f64_unit_open(std::string_view key, const std::string& v) {
  const double r = model_f64(key, v);
  if (r <= 0.0 || r >= 1.0) bad_value(key, "must be in (0, 1)");
  return r;
}

std::vector<std::uint8_t> parse_pattern(const std::string& v) {
  std::vector<std::uint8_t> out;
  std::size_t start = 0;
  while (start <= v.size()) {
    const std::size_t dash = v.find('-', start);
    const std::string tok =
        dash == std::string::npos ? v.substr(start) : v.substr(start, dash - start);
    try {
      std::size_t pos = 0;
      const unsigned long lab = std::stoul(tok, &pos);
      if (pos != tok.size() || lab > 255) throw std::invalid_argument(tok);
      out.push_back(static_cast<std::uint8_t>(lab));
    } catch (const std::exception&) {
      bad_value("pattern", "expected dash-separated labels 0-255, got '" + v + "'");
    }
    if (dash == std::string::npos) break;
    start = dash + 1;
  }
  return out;
}

bool no_model_keys(WalkSpec& /*spec*/, std::string_view /*key*/,
                   const std::string& /*value*/) {
  return false;
}

bool node2vec_key(WalkSpec& spec, std::string_view key, const std::string& v) {
  if (key == "p") {
    spec.second_order.p = model_f64_positive(key, v);
    return true;
  }
  if (key == "q") {
    spec.second_order.q = model_f64_positive(key, v);
    return true;
  }
  return false;
}

bool ppr_key(WalkSpec& spec, std::string_view key, const std::string& v) {
  if (key == "stop") {
    const double r = model_f64(key, v);
    if (r < 0.0 || r >= 1.0) bad_value(key, "must be in [0, 1)");
    spec.stop_prob = r;
    return true;
  }
  if (key == "stop_mode") {
    if (v == "geometric") {
      spec.residual_eps = 0.0;
    } else if (v == "residual") {
      // Residual-threshold early termination; eps= refines the default.
      if (spec.residual_eps == 0.0) spec.residual_eps = 0.01;
    } else {
      bad_value(key, "expected geometric|residual, got '" + v + "'");
    }
    return true;
  }
  if (key == "eps") {
    spec.residual_eps = model_f64_unit_open(key, v);
    return true;
  }
  return false;
}

bool metapath_key(WalkSpec& spec, std::string_view key, const std::string& v) {
  if (key == "pattern") {
    spec.metapath_pattern = parse_pattern(v);
    return true;
  }
  return false;
}

bool autoreg_key(WalkSpec& spec, std::string_view key, const std::string& v) {
  if (key == "alpha") {
    spec.autoreg_alpha = model_f64_unit_open(key, v);
    return true;
  }
  return false;
}

std::unique_ptr<const WalkModel> make_deepwalk(const WalkSpec& spec) {
  return std::make_unique<FirstOrderModel>(spec, "deepwalk");
}

std::unique_ptr<const WalkModel> make_node2vec(const WalkSpec& spec) {
  return std::make_unique<SecondOrderModel>(spec);
}

std::unique_ptr<const WalkModel> make_ppr(const WalkSpec& spec) {
  if (spec.residual_eps > 0.0) return std::make_unique<ResidualPprModel>(spec);
  return std::make_unique<FirstOrderModel>(spec, "ppr");
}

std::unique_ptr<const WalkModel> make_metapath(const WalkSpec& spec) {
  return std::make_unique<MetapathModel>(spec);
}

std::unique_ptr<const WalkModel> make_autoreg(const WalkSpec& spec) {
  return std::make_unique<AutoregModel>(spec);
}

}  // namespace

const std::vector<ModelInfo>& model_registry() {
  static const std::vector<ModelInfo> kRegistry = {
      {"autoreg",
       "autoregressive second-order (momentum) walk",
       "alpha",
       false,
       [](WalkSpec& s) { s.model = "autoreg"; },
       autoreg_key,
       make_autoreg},
      {"deepwalk",
       "first-order uniform walk (random start)",
       "",
       true,
       [](WalkSpec& s) {
         s.model = "deepwalk";
         s.start_mode = StartMode::kUniformRandom;
       },
       no_model_keys,
       make_deepwalk},
      {"metapath",
       "label-pattern walk over a labeled graph",
       "pattern (dash-separated labels, e.g. 0-1-2)",
       false,
       [](WalkSpec& s) {
         s.model = "metapath";
         if (s.metapath_pattern.empty()) s.metapath_pattern = {0, 1};
       },
       metapath_key,
       make_metapath},
      {"node2vec",
       "second-order p/q walk",
       "p, q",
       true,
       [](WalkSpec& s) {
         s.model = "node2vec";
         s.start_mode = StartMode::kUniformRandom;
         s.second_order.enabled = true;
       },
       node2vec_key,
       make_node2vec},
      {"ppr",
       "Monte-Carlo PPR (single source, geometric or residual stop)",
       "stop, stop_mode=geometric|residual, eps",
       true,
       [](WalkSpec& s) {
         // Monte-Carlo PPR: all walks from one source, geometric
         // termination, restart at the source on dead ends.
         s.model = "ppr";
         s.start_mode = StartMode::kSingleSource;
         s.stop_prob = 0.15;
         s.dead_end = WalkSpec::DeadEnd::kRestart;
       },
       ppr_key,
       make_ppr},
  };
  return kRegistry;
}

const ModelInfo* find_model(std::string_view name) {
  for (const ModelInfo& m : model_registry()) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string registered_model_names() {
  std::string out;
  for (const ModelInfo& m : model_registry()) {
    if (!out.empty()) out += '|';
    out += m.name;
  }
  return out;
}

std::string_view resolve_model_name(const WalkSpec& spec) {
  if (!spec.model.empty()) return spec.model;
  return spec.second_order.enabled ? "node2vec" : "deepwalk";
}

std::unique_ptr<const WalkModel> create_model(const WalkSpec& spec) {
  const std::string_view name = resolve_model_name(spec);
  const ModelInfo* info = find_model(name);
  if (info == nullptr) {
    throw std::invalid_argument("unknown walk model '" + std::string(name) +
                                "' (registered: " + registered_model_names() + ")");
  }
  return info->create(spec);
}

std::uint64_t model_state_bytes(const WalkSpec& spec, std::size_t id_bytes) {
  return create_model(spec)->state_bytes(id_bytes);
}

}  // namespace fw::rw
