#include "fsm/fsm.hpp"

#include <chrono>
#include <map>
#include <stdexcept>

namespace mrsc::fsm {

namespace {
using core::RateCategory;
using core::SpeciesId;
using core::Term;
}  // namespace

void FsmSpec::validate() const {
  if (num_states == 0 || num_inputs == 0) {
    throw std::invalid_argument("FsmSpec: need >= 1 state and >= 1 input");
  }
  if (initial_state >= num_states) {
    throw std::invalid_argument("FsmSpec: initial state out of range");
  }
  if (next_state.size() != num_states) {
    throw std::invalid_argument("FsmSpec: next_state table has wrong height");
  }
  for (const auto& row : next_state) {
    if (row.size() != num_inputs) {
      throw std::invalid_argument("FsmSpec: next_state row has wrong width");
    }
    for (const std::size_t target : row) {
      if (target >= num_states) {
        throw std::invalid_argument("FsmSpec: transition target out of range");
      }
    }
  }
  if (num_outputs > 0 || !output.empty()) {
    if (output.size() != num_states) {
      throw std::invalid_argument("FsmSpec: output table has wrong height");
    }
    for (const auto& row : output) {
      if (row.size() != num_inputs) {
        throw std::invalid_argument("FsmSpec: output row has wrong width");
      }
      for (const std::size_t symbol : row) {
        if (symbol != kNoOutput && symbol >= num_outputs) {
          throw std::invalid_argument("FsmSpec: output symbol out of range");
        }
      }
    }
  }
}

FsmHandles build_fsm(core::ReactionNetwork& network, const FsmSpec& spec,
                     const compile::CompileOptions& options) {
  spec.validate();
  const std::string& p = spec.prefix;
  sync::ClockSpec clock_spec = spec.clock;
  if (clock_spec.prefix == "clk") clock_spec.prefix = p + "_clk";

  const auto lowering_start = std::chrono::steady_clock::now();
  compile::LoweringContext ctx(network, p);

  FsmHandles handles;
  handles.clock = sync::build_clock(ctx, clock_spec);

  for (std::size_t s = 0; s < spec.num_states; ++s) {
    handles.state.push_back(ctx.species(
        p + "_Q" + std::to_string(s), s == spec.initial_state ? 1.0 : 0.0));
    handles.state_primed.push_back(
        ctx.species(p + "_Qp" + std::to_string(s)));
  }
  for (std::size_t a = 0; a < spec.num_inputs; ++a) {
    handles.input.push_back(ctx.species(p + "_I" + std::to_string(a)));
  }
  for (std::size_t x = 0; x < spec.num_outputs; ++x) {
    handles.output.push_back(ctx.species(p + "_O" + std::to_string(x)));
  }
  // Every handle is a root: the one-hot state vectors are positional, so
  // even a state unreachable from the initial state must keep its species.
  for (const SpeciesId id : handles.state) {
    ctx.declare_root(id, compile::PortRole::kState);
  }
  for (const SpeciesId id : handles.state_primed) {
    ctx.declare_root(id, compile::PortRole::kState);
  }
  for (const SpeciesId id : handles.input) {
    ctx.declare_root(id, compile::PortRole::kInput);
  }
  for (const SpeciesId id : handles.output) {
    ctx.declare_root(id, compile::PortRole::kOutput);
  }

  // Transitions: I_a + Q_s -> Q'_{s'} (+ O_x).
  for (std::size_t s = 0; s < spec.num_states; ++s) {
    for (std::size_t a = 0; a < spec.num_inputs; ++a) {
      const std::size_t target = spec.next_state[s][a];
      std::vector<Term> products = {{handles.state_primed[target], 1}};
      if (!spec.output.empty() && spec.output[s][a] != kNoOutput) {
        products.push_back(Term{handles.output[spec.output[s][a]], 1});
      }
      network.add({{handles.input[a], 1}, {handles.state[s], 1}},
                  std::move(products), RateCategory::kFast, 0.0,
                  p + ".t.s" + std::to_string(s) + ".a" + std::to_string(a));
      ctx.tag_pending(compile::ReactionTag::kFastOp);
    }
  }

  // Write-back (blue phase): primed masters -> slaves.
  for (std::size_t s = 0; s < spec.num_states; ++s) {
    ctx.writeback(handles.clock.phase_b, handles.state_primed[s],
                  handles.state[s], p + ".writeback.s" + std::to_string(s));
  }

  const double lowering_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    lowering_start)
          .count();
  const compile::FinalizeResult fin = ctx.finalize(options, lowering_seconds);
  if (fin.optimized) {
    for (SpeciesId& id : handles.state) id = fin(id);
    for (SpeciesId& id : handles.state_primed) id = fin(id);
    for (SpeciesId& id : handles.input) id = fin(id);
    for (SpeciesId& id : handles.output) id = fin(id);
    handles.clock.remap(fin);
  }
  return handles;
}

std::size_t decode_state(const FsmHandles& handles,
                         std::span<const double> state) {
  std::size_t best = 0;
  double best_value = -1.0;
  for (std::size_t s = 0; s < handles.state.size(); ++s) {
    const double value = state[handles.state[s].index()];
    if (value > best_value) {
      best_value = value;
      best = s;
    }
  }
  return best;
}

FsmTrace evaluate_reference(const FsmSpec& spec,
                            std::span<const std::size_t> inputs) {
  spec.validate();
  FsmTrace trace;
  std::size_t state = spec.initial_state;
  for (const std::size_t a : inputs) {
    if (a >= spec.num_inputs) {
      throw std::invalid_argument("evaluate_reference: input out of range");
    }
    const std::size_t output =
        spec.output.empty() ? kNoOutput : spec.output[state][a];
    state = spec.next_state[state][a];
    trace.states.push_back(state);
    trace.outputs.push_back(output);
  }
  return trace;
}

MinimizationResult minimize(const FsmSpec& spec) {
  spec.validate();
  const std::size_t n = spec.num_states;
  const std::size_t m = spec.num_inputs;
  auto output_of = [&](std::size_t s, std::size_t a) {
    return spec.output.empty() ? kNoOutput : spec.output[s][a];
  };

  // 1. Reachability from the initial state.
  std::vector<bool> reachable(n, false);
  std::vector<std::size_t> worklist = {spec.initial_state};
  reachable[spec.initial_state] = true;
  while (!worklist.empty()) {
    const std::size_t s = worklist.back();
    worklist.pop_back();
    for (std::size_t a = 0; a < m; ++a) {
      const std::size_t t = spec.next_state[s][a];
      if (!reachable[t]) {
        reachable[t] = true;
        worklist.push_back(t);
      }
    }
  }

  // 2. Partition refinement. Initial blocks: output signature (unreachable
  // states are parked in a dedicated dead block and dropped at the end).
  std::vector<std::size_t> block(n, 0);
  {
    std::map<std::vector<std::size_t>, std::size_t> signature_block;
    for (std::size_t s = 0; s < n; ++s) {
      if (!reachable[s]) {
        block[s] = static_cast<std::size_t>(-2);
        continue;
      }
      std::vector<std::size_t> signature;
      for (std::size_t a = 0; a < m; ++a) signature.push_back(output_of(s, a));
      const auto [it, inserted] =
          signature_block.emplace(std::move(signature), signature_block.size());
      block[s] = it->second;
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    std::map<std::vector<std::size_t>, std::size_t> refined_ids;
    std::vector<std::size_t> refined(n, static_cast<std::size_t>(-2));
    for (std::size_t s = 0; s < n; ++s) {
      if (!reachable[s]) continue;
      // Key: current block plus the blocks of all successors.
      std::vector<std::size_t> key = {block[s]};
      for (std::size_t a = 0; a < m; ++a) {
        key.push_back(block[spec.next_state[s][a]]);
      }
      const auto [it, inserted] =
          refined_ids.emplace(std::move(key), refined_ids.size());
      refined[s] = it->second;
    }
    for (std::size_t s = 0; s < n; ++s) {
      if (reachable[s] && refined[s] != block[s]) changed = true;
    }
    block.swap(refined);
  }

  // 3. Renumber blocks densely and assemble the minimized machine.
  std::map<std::size_t, std::size_t> dense;
  MinimizationResult result;
  result.state_map.assign(n, MinimizationResult::kUnreachable);
  for (std::size_t s = 0; s < n; ++s) {
    if (!reachable[s]) continue;
    const auto [it, inserted] = dense.emplace(block[s], dense.size());
    result.state_map[s] = it->second;
  }
  const std::size_t k = dense.size();
  result.spec.num_states = k;
  result.spec.num_inputs = m;
  result.spec.num_outputs = spec.num_outputs;
  result.spec.initial_state = result.state_map[spec.initial_state];
  result.spec.clock = spec.clock;
  result.spec.prefix = spec.prefix;
  result.spec.next_state.assign(k, std::vector<std::size_t>(m, 0));
  if (!spec.output.empty()) {
    result.spec.output.assign(k, std::vector<std::size_t>(m, kNoOutput));
  }
  for (std::size_t s = 0; s < n; ++s) {
    if (!reachable[s]) continue;
    const std::size_t q = result.state_map[s];
    for (std::size_t a = 0; a < m; ++a) {
      result.spec.next_state[q][a] =
          result.state_map[spec.next_state[s][a]];
      if (!spec.output.empty()) result.spec.output[q][a] = output_of(s, a);
    }
  }
  return result;
}

FsmSpec make_sequence_detector(std::string_view pattern) {
  if (pattern.empty()) {
    throw std::invalid_argument("make_sequence_detector: empty pattern");
  }
  for (const char c : pattern) {
    if (c != '0' && c != '1') {
      throw std::invalid_argument(
          "make_sequence_detector: pattern must be binary");
    }
  }
  const std::size_t m = pattern.size();
  // KMP failure function.
  std::vector<std::size_t> failure(m, 0);
  for (std::size_t i = 1; i < m; ++i) {
    std::size_t k = failure[i - 1];
    while (k > 0 && pattern[i] != pattern[k]) k = failure[k - 1];
    if (pattern[i] == pattern[k]) ++k;
    failure[i] = k;
  }
  // State = number of pattern characters matched so far (0..m-1); reaching m
  // emits the match output and falls back per the failure function.
  auto advance = [&](std::size_t state, char bit) {
    std::size_t k = state;
    while (k > 0 && pattern[k] != bit) k = failure[k - 1];
    if (pattern[k] == bit) ++k;
    return k;
  };
  FsmSpec spec;
  spec.num_states = m;
  spec.num_inputs = 2;
  spec.num_outputs = 1;
  spec.initial_state = 0;
  spec.next_state.assign(m, std::vector<std::size_t>(2, 0));
  spec.output.assign(m, std::vector<std::size_t>(2, kNoOutput));
  spec.prefix = "seqdet";
  for (std::size_t s = 0; s < m; ++s) {
    for (std::size_t a = 0; a < 2; ++a) {
      const char bit = a == 0 ? '0' : '1';
      std::size_t next = advance(s, bit);
      if (next == m) {
        spec.output[s][a] = 0;  // match completed
        next = failure[m - 1];  // continue for overlapping occurrences
      }
      spec.next_state[s][a] = next;
    }
  }
  return spec;
}

FsmSpec make_parity_machine() {
  FsmSpec spec;
  spec.num_states = 2;  // 0 = even, 1 = odd
  spec.num_inputs = 2;
  spec.num_outputs = 2;  // emits its new parity every cycle
  spec.initial_state = 0;
  spec.next_state = {{0, 1}, {1, 0}};
  spec.output = {{0, 1}, {1, 0}};
  spec.prefix = "parity";
  return spec;
}

}  // namespace mrsc::fsm
