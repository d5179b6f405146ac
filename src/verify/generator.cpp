#include "verify/generator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sync/dual_rail.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace mrsc::verify {
namespace {

using core::RateCategory;
using core::ReactionNetwork;
using core::SpeciesId;
using core::Term;
using util::Rng;

// Distinct RNG sub-streams per kind so the same seed yields unrelated cases.
constexpr std::uint64_t kSaltRaw = 0x7261;
constexpr std::uint64_t kSaltSync = 0x7379;
constexpr std::uint64_t kSaltDual = 0x6472;
constexpr std::uint64_t kSaltFsm = 0x6673;
constexpr std::uint64_t kSaltCounter = 0x6374;

/// Sync/dual-rail circuits: upper bounds on registers and on random
/// combinational ops (each case draws 1..bound of both).
constexpr std::size_t kMaxRegisters = 2;
constexpr std::size_t kMaxOps = 5;

// --- reference-model expression program -------------------------------------
//
// The random DAG is recorded twice: once as CircuitBuilder calls (which lower
// to reactions) and once as this tiny expression program evaluated on plain
// doubles. Keeping the two in lockstep is what makes the functional oracle an
// *exact* reference, not a re-derivation that could share a bug with the
// compiler.

struct Node {
  enum class Kind : std::uint8_t {
    kInput,     // the cycle's input sample
    kRead,      // register value at the start of the cycle
    kAdd,       // a + b
    kSub,       // a - b (dual-rail only)
    kNeg,       // -a   (dual-rail only)
    kMin,       // min(a, b) (unsigned only)
    kScale,     // a * num / 2^halv
  };
  Kind kind = Kind::kInput;
  int a = -1;
  int b = -1;
  int reg = -1;
  std::uint32_t num = 1;
  std::uint32_t halv = 0;
};

class RefProgram {
 public:
  int push(Node node) {
    nodes_.push_back(node);
    return static_cast<int>(nodes_.size()) - 1;
  }

  /// Evaluates node `id` for one cycle with input `x` and register values
  /// `state` (values at the start of the cycle).
  [[nodiscard]] double eval(int id, double x,
                            const std::vector<double>& state) const {
    const Node& n = nodes_[static_cast<std::size_t>(id)];
    switch (n.kind) {
      case Node::Kind::kInput:
        return x;
      case Node::Kind::kRead:
        return state[static_cast<std::size_t>(n.reg)];
      case Node::Kind::kAdd:
        return eval(n.a, x, state) + eval(n.b, x, state);
      case Node::Kind::kSub:
        return eval(n.a, x, state) - eval(n.b, x, state);
      case Node::Kind::kNeg:
        return -eval(n.a, x, state);
      case Node::Kind::kMin:
        return std::min(eval(n.a, x, state), eval(n.b, x, state));
      case Node::Kind::kScale:
        return eval(n.a, x, state) * static_cast<double>(n.num) /
               static_cast<double>(1u << n.halv);
    }
    return 0.0;
  }

 private:
  std::vector<Node> nodes_;
};

/// Runs the reference model: one warmup cycle on zero input (matching the
/// driver's default warmup_edges = 1), then one output per sample.
std::vector<double> evaluate_reference(const RefProgram& prog,
                                       std::vector<double> state,
                                       const std::vector<int>& write_nodes,
                                       int out_node,
                                       std::span<const double> samples) {
  auto advance = [&](double x) {
    std::vector<double> next(write_nodes.size());
    for (std::size_t i = 0; i < write_nodes.size(); ++i) {
      next[i] = prog.eval(write_nodes[i], x, state);
    }
    state = std::move(next);
  };
  advance(0.0);  // warmup cycle
  std::vector<double> expected;
  expected.reserve(samples.size());
  for (const double x : samples) {
    expected.push_back(prog.eval(out_node, x, state));
    advance(x);
  }
  return expected;
}

// Safe dyadic scale factors (<= 1.5 so feedback cannot blow up: every
// register write is additionally damped by 1/2 below).
struct ScalePick {
  std::uint32_t num;
  std::uint32_t halv;
};
constexpr ScalePick kScalePicks[] = {{1, 1}, {1, 2}, {3, 2}, {3, 1}};

// --- unsigned synchronous circuits ------------------------------------------

SyncCase make_sync_case(std::uint64_t seed, const GeneratorOptions& opt,
                        ClockedCase& clocked) {
  Rng rng(Rng::stream_seed(seed, kSaltSync));
  SyncCase c;
  sync::CircuitBuilder b;
  RefProgram prog;

  struct Entry {
    sync::Sig sig;
    int node;
  };
  std::vector<Entry> pool;
  auto take = [&](std::size_t idx) {
    Entry e = pool[idx];
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(idx));
    return e;
  };
  auto take_random = [&] { return take(rng.uniform_below(pool.size())); };

  pool.push_back({b.input("x"), prog.push({.kind = Node::Kind::kInput})});

  const std::size_t n_regs = 1 + rng.uniform_below(kMaxRegisters);
  std::vector<sync::Reg> regs;
  std::vector<double> initials;
  for (std::size_t i = 0; i < n_regs; ++i) {
    const double init = rng.uniform(0.0, 1.0);
    regs.push_back(b.add_register("r" + std::to_string(i), init));
    initials.push_back(init);
    pool.push_back(
        {b.read(regs[i]),
         prog.push({.kind = Node::Kind::kRead, .reg = static_cast<int>(i)})});
  }

  const std::size_t n_ops = 1 + rng.uniform_below(kMaxOps);
  for (std::size_t k = 0; k < n_ops; ++k) {
    std::uint64_t choice = rng.uniform_below(4);
    if (pool.size() < 2 && choice <= 1) choice = 3;
    switch (choice) {
      case 0: {  // add
        Entry ea = take_random();
        Entry eb = take_random();
        pool.push_back({b.add(ea.sig, eb.sig),
                        prog.push({.kind = Node::Kind::kAdd, .a = ea.node,
                                   .b = eb.node})});
        break;
      }
      case 1: {  // min
        Entry ea = take_random();
        Entry eb = take_random();
        pool.push_back({b.min(ea.sig, eb.sig),
                        prog.push({.kind = Node::Kind::kMin, .a = ea.node,
                                   .b = eb.node})});
        break;
      }
      case 2: {  // scale
        Entry e = take_random();
        const ScalePick pick = kScalePicks[rng.uniform_below(4)];
        pool.push_back({b.scale(e.sig, pick.num, pick.halv),
                        prog.push({.kind = Node::Kind::kScale, .a = e.node,
                                   .num = pick.num, .halv = pick.halv})});
        break;
      }
      default: {  // fanout (copies share the reference node: same value)
        Entry e = take_random();
        auto copies = b.fanout(e.sig, 2);
        pool.push_back({copies[0], e.node});
        pool.push_back({copies[1], e.node});
        break;
      }
    }
  }

  // Every register gets exactly one write and there is one output; grow the
  // pool by fanout if the ops left it too small.
  while (pool.size() < n_regs + 1) {
    Entry e = take_random();
    auto copies = b.fanout(e.sig, 2);
    pool.push_back({copies[0], e.node});
    pool.push_back({copies[1], e.node});
  }

  // Register writes are damped by 1/2 so feedback loops are contractive and
  // trajectories stay bounded over any number of cycles.
  std::vector<int> write_nodes(n_regs);
  for (std::size_t i = 0; i < n_regs; ++i) {
    Entry e = take_random();
    b.write(regs[i], b.scale(e.sig, 1, 1));
    write_nodes[i] =
        prog.push({.kind = Node::Kind::kScale, .a = e.node, .num = 1, .halv = 1});
  }

  Entry out = take_random();
  b.output("y", out.sig);
  for (const Entry& e : pool) b.discard(e.sig);

  c.circuit = b.compile(c.network, {}, "f");
  clocked.stimulus.resize(opt.cycles);
  for (double& s : clocked.stimulus) s = rng.uniform(0.0, 1.2);
  // The decoder's reference replays the program over any stimulus.
  clocked.decoder = std::make_shared<analysis::CircuitDecoder>(
      analysis::CircuitDecoder::clocked(
          c.circuit, [=, node = out.node](std::span<const double> x) {
            return evaluate_reference(prog, initials, write_nodes, node, x);
          }));
  return c;
}

// --- dual-rail (signed) circuits --------------------------------------------

DualRailCase make_dual_rail_case(std::uint64_t seed,
                                 const GeneratorOptions& opt,
                                 ClockedCase& clocked) {
  Rng rng(Rng::stream_seed(seed, kSaltDual));
  DualRailCase c;
  sync::CircuitBuilder base;
  sync::DualRailBuilder b(base);
  RefProgram prog;

  struct Entry {
    sync::DSig sig;
    int node;
  };
  std::vector<Entry> pool;
  auto take = [&](std::size_t idx) {
    Entry e = pool[idx];
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(idx));
    return e;
  };
  auto take_random = [&] { return take(rng.uniform_below(pool.size())); };

  pool.push_back({b.input("x"), prog.push({.kind = Node::Kind::kInput})});

  const std::size_t n_regs = 1 + rng.uniform_below(kMaxRegisters);
  std::vector<sync::DReg> regs;
  std::vector<std::string> reg_names;
  std::vector<double> initials;
  for (std::size_t i = 0; i < n_regs; ++i) {
    const double init = rng.uniform(-0.8, 0.8);
    const std::string name = "r" + std::to_string(i);
    regs.push_back(b.add_register(name, init));
    reg_names.push_back(name);
    initials.push_back(init);
    pool.push_back(
        {b.read(regs[i]),
         prog.push({.kind = Node::Kind::kRead, .reg = static_cast<int>(i)})});
  }

  const std::size_t n_ops = 1 + rng.uniform_below(kMaxOps);
  for (std::size_t k = 0; k < n_ops; ++k) {
    std::uint64_t choice = rng.uniform_below(5);
    if (pool.size() < 2 && choice <= 1) choice = 2 + rng.uniform_below(3);
    switch (choice) {
      case 0: {  // add
        Entry ea = take_random();
        Entry eb = take_random();
        pool.push_back({b.add(ea.sig, eb.sig),
                        prog.push({.kind = Node::Kind::kAdd, .a = ea.node,
                                   .b = eb.node})});
        break;
      }
      case 1: {  // subtract
        Entry ea = take_random();
        Entry eb = take_random();
        pool.push_back({b.subtract(ea.sig, eb.sig),
                        prog.push({.kind = Node::Kind::kSub, .a = ea.node,
                                   .b = eb.node})});
        break;
      }
      case 2: {  // negate
        Entry e = take_random();
        pool.push_back({b.negate(e.sig),
                        prog.push({.kind = Node::Kind::kNeg, .a = e.node})});
        break;
      }
      case 3: {  // scale
        Entry e = take_random();
        const ScalePick pick = kScalePicks[rng.uniform_below(4)];
        pool.push_back({b.scale(e.sig, pick.num, pick.halv),
                        prog.push({.kind = Node::Kind::kScale, .a = e.node,
                                   .num = pick.num, .halv = pick.halv})});
        break;
      }
      default: {  // fanout
        Entry e = take_random();
        auto copies = b.fanout(e.sig, 2);
        pool.push_back({copies[0], e.node});
        pool.push_back({copies[1], e.node});
        break;
      }
    }
  }

  while (pool.size() < n_regs + 1) {
    Entry e = take_random();
    auto copies = b.fanout(e.sig, 2);
    pool.push_back({copies[0], e.node});
    pool.push_back({copies[1], e.node});
  }

  std::vector<int> write_nodes(n_regs);
  for (std::size_t i = 0; i < n_regs; ++i) {
    Entry e = take_random();
    b.write(regs[i], b.scale(e.sig, 1, 1));
    write_nodes[i] =
        prog.push({.kind = Node::Kind::kScale, .a = e.node, .num = 1, .halv = 1});
  }

  Entry out = take_random();
  b.output("y", out.sig);
  for (const Entry& e : pool) b.discard(e.sig);

  c.circuit = base.compile(c.network, {}, "f");
  for (const std::string& name : reg_names) {
    c.rail_pairs.emplace_back(c.circuit.state(sync::rail_pos(name)),
                              c.circuit.state(sync::rail_neg(name)));
  }
  clocked.stimulus.resize(opt.cycles);
  for (double& s : clocked.stimulus) s = rng.uniform(-1.0, 1.0);
  clocked.decoder = std::make_shared<analysis::CircuitDecoder>(
      analysis::CircuitDecoder::dual_rail(
          c.circuit, [=, node = out.node](std::span<const double> x) {
            return evaluate_reference(prog, initials, write_nodes, node, x);
          }));
  return c;
}

// --- random FSMs -------------------------------------------------------------

FsmCase make_fsm_case(std::uint64_t seed, const GeneratorOptions& opt,
                      ClockedCase& clocked) {
  Rng rng(Rng::stream_seed(seed, kSaltFsm));
  FsmCase c;
  fsm::FsmSpec spec;
  spec.num_states = 2 + rng.uniform_below(3);  // 2..4
  spec.num_inputs = 2;
  spec.num_outputs = 2;
  spec.initial_state = rng.uniform_below(spec.num_states);
  spec.next_state.assign(spec.num_states,
                         std::vector<std::size_t>(spec.num_inputs, 0));
  spec.output.assign(spec.num_states,
                     std::vector<std::size_t>(spec.num_inputs, 0));
  for (std::size_t s = 0; s < spec.num_states; ++s) {
    for (std::size_t a = 0; a < spec.num_inputs; ++a) {
      spec.next_state[s][a] = rng.uniform_below(spec.num_states);
      const std::uint64_t out = rng.uniform_below(3);
      spec.output[s][a] = out == 2 ? fsm::kNoOutput : out;
    }
  }
  spec.validate();
  c.spec = spec;
  c.handles = fsm::build_fsm(c.network, spec);
  clocked.stimulus.resize(opt.cycles + 2);
  for (double& a : clocked.stimulus) {
    a = static_cast<double>(rng.uniform_below(spec.num_inputs));
  }
  clocked.decoder = std::make_shared<analysis::FsmDecoder>(spec, c.handles);
  clocked.state = c.handles.state;
  clocked.state.insert(clocked.state.end(), c.handles.state_primed.begin(),
                       c.handles.state_primed.end());
  return c;
}

// --- random-width counters ---------------------------------------------------

CounterCase make_counter_case(std::uint64_t seed, const GeneratorOptions& opt,
                              ClockedCase& clocked) {
  Rng rng(Rng::stream_seed(seed, kSaltCounter));
  CounterCase c;
  c.spec.bits = 2 + rng.uniform_below(3);  // 2..4
  c.spec.initial_value = rng.uniform_below(1ULL << c.spec.bits);
  c.handles = dsp::build_counter(c.network, c.spec);
  clocked.stimulus.assign(opt.cycles + 2, 1.0);
  clocked.decoder =
      std::make_shared<analysis::CounterDecoder>(c.spec, c.handles);
  clocked.state = c.handles.zero_rail;
  clocked.state.insert(clocked.state.end(), c.handles.one_rail.begin(),
                       c.handles.one_rail.end());
  return c;
}

// --- raw mass-action networks ------------------------------------------------

RawCase make_raw_case(std::uint64_t seed, const GeneratorOptions& /*opt*/) {
  Rng rng(Rng::stream_seed(seed, kSaltRaw));
  RawCase c;
  c.closed = rng.uniform_below(2) == 0;

  const std::size_t n_species = 3 + rng.uniform_below(4);  // 3..6
  std::vector<SpeciesId> ids;
  ids.reserve(n_species);
  for (std::size_t i = 0; i < n_species; ++i) {
    ids.push_back(c.network.add_species("S" + std::to_string(i),
                                        rng.uniform(0.2, 2.0)));
  }
  auto pick = [&] { return ids[rng.uniform_below(ids.size())]; };
  auto pick_distinct = [&](SpeciesId other) {
    SpeciesId s = pick();
    while (s == other && ids.size() > 1) s = pick();
    return s;
  };

  const std::size_t n_reactions = 4 + rng.uniform_below(5);  // 4..8
  for (std::size_t r = 0; r < n_reactions; ++r) {
    const double rate = std::exp(rng.uniform(std::log(0.1), std::log(3.0)));
    // Closed networks only use k -> k shapes with unit stoichiometry, so the
    // total concentration is conserved exactly.
    const std::uint64_t shape =
        c.closed ? rng.uniform_below(2) : rng.uniform_below(4);
    std::vector<Term> reactants;
    std::vector<Term> products;
    switch (shape) {
      case 0: {  // A -> B
        const SpeciesId a = pick();
        reactants = {{a, 1}};
        products = {{pick_distinct(a), 1}};
        break;
      }
      case 1: {  // A + B -> C + D
        const SpeciesId a = pick();
        const SpeciesId b = pick_distinct(a);
        const SpeciesId p = pick();
        reactants = {{a, 1}, {b, 1}};
        products = {{p, 1}, {pick_distinct(p), 1}};
        break;
      }
      case 2: {  // A -> B + C (open only)
        const SpeciesId a = pick();
        const SpeciesId p = pick();
        reactants = {{a, 1}};
        products = {{p, 1}, {pick_distinct(p), 1}};
        break;
      }
      default: {  // A + B -> C (open only)
        const SpeciesId a = pick();
        reactants = {{a, 1}, {pick_distinct(a), 1}};
        products = {{pick(), 1}};
        break;
      }
    }
    c.network.add(std::move(reactants), std::move(products),
                  RateCategory::kCustom, rate);
  }
  return c;
}

}  // namespace

const char* to_string(CaseKind kind) {
  switch (kind) {
    case CaseKind::kRawNetwork:
      return "raw";
    case CaseKind::kSyncCircuit:
      return "sync";
    case CaseKind::kDualRailCircuit:
      return "dual";
    case CaseKind::kFsm:
      return "fsm";
    case CaseKind::kCounter:
      return "counter";
  }
  return "?";
}

std::vector<CaseKind> parse_kinds(const std::string& csv) {
  const std::vector<CaseKind> all = {
      CaseKind::kRawNetwork, CaseKind::kSyncCircuit,
      CaseKind::kDualRailCircuit, CaseKind::kFsm, CaseKind::kCounter};
  if (csv.empty()) return all;
  std::vector<CaseKind> kinds;
  for (const std::string& name : util::split_commas(csv)) {
    bool found = false;
    for (const CaseKind kind : all) {
      if (name == to_string(kind)) {
        kinds.push_back(kind);
        found = true;
        break;
      }
    }
    if (!found) {
      throw std::invalid_argument("unknown case kind: '" + name +
                                  "' (expected raw,sync,dual,fsm,counter)");
    }
  }
  return kinds;
}

const core::ReactionNetwork& GeneratedCase::network() const {
  return std::visit(
      [](const auto& c) -> const core::ReactionNetwork& { return c.network; },
      payload);
}

GeneratedCase generate_case(CaseKind kind, std::uint64_t seed,
                            const GeneratorOptions& options) {
  GeneratedCase result;
  result.kind = kind;
  result.seed = seed;
  switch (kind) {
    case CaseKind::kRawNetwork:
      result.payload = make_raw_case(seed, options);
      break;
    case CaseKind::kSyncCircuit:
      result.payload = make_sync_case(seed, options, result.clocked);
      break;
    case CaseKind::kDualRailCircuit:
      result.payload = make_dual_rail_case(seed, options, result.clocked);
      break;
    case CaseKind::kFsm:
      result.payload = make_fsm_case(seed, options, result.clocked);
      break;
    case CaseKind::kCounter:
      result.payload = make_counter_case(seed, options, result.clocked);
      break;
  }
  return result;
}

}  // namespace mrsc::verify
