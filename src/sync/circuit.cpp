#include "sync/circuit.hpp"

#include <chrono>
#include <stdexcept>

#include "modules/combinational.hpp"

namespace mrsc::sync {

namespace {

using core::RateCategory;
using core::SpeciesId;
using core::Term;

/// "file.cpp:42" — the directory part of __FILE__ is noise in a diagnostic.
std::string site(const std::source_location& loc) {
  std::string file = loc.file_name();
  const std::size_t slash = file.find_last_of('/');
  if (slash != std::string::npos) file = file.substr(slash + 1);
  return file + ":" + std::to_string(loc.line());
}

}  // namespace

core::SpeciesId CompiledCircuit::input(const std::string& name) const {
  const auto it = inputs.find(name);
  if (it == inputs.end()) {
    throw std::out_of_range("CompiledCircuit: no input port '" + name + "'");
  }
  return it->second;
}

core::SpeciesId CompiledCircuit::output(const std::string& name) const {
  const auto it = outputs.find(name);
  if (it == outputs.end()) {
    throw std::out_of_range("CompiledCircuit: no output port '" + name + "'");
  }
  return it->second;
}

core::SpeciesId CompiledCircuit::state(const std::string& name) const {
  const auto it = register_state.find(name);
  if (it == register_state.end()) {
    throw std::out_of_range("CompiledCircuit: no register '" + name + "'");
  }
  return it->second;
}

Sig CircuitBuilder::new_sig(const std::source_location& loc) {
  sig_consumed_.push_back(false);
  SigSite sites;
  sites.defined_at = loc;
  sig_sites_.push_back(sites);
  return Sig{sig_count_++};
}

void CircuitBuilder::mark_consumed(Sig sig, const char* by,
                                   const std::source_location& loc) {
  if (!sig.valid() || sig.index >= sig_count_) {
    throw std::logic_error(std::string("CircuitBuilder: invalid signal "
                                       "passed to ") +
                           by + " at " + site(loc));
  }
  if (sig_consumed_[sig.index]) {
    const SigSite& sites = sig_sites_[sig.index];
    throw std::logic_error(
        "CircuitBuilder: signal #" + std::to_string(sig.index) +
        " consumed twice (defined at " + site(sites.defined_at) +
        "; first consumed by " + sites.consumed_by + " at " +
        site(sites.consumed_at) + "; second consumer: " + by + " at " +
        site(loc) + "); use fanout() for multiple consumers");
  }
  sig_consumed_[sig.index] = true;
  sig_sites_[sig.index].consumed_by = by;
  sig_sites_[sig.index].consumed_at = loc;
}

Sig CircuitBuilder::input(const std::string& name, std::source_location loc) {
  Op op;
  op.kind = OpKind::kInput;
  op.name = name;
  const Sig result = new_sig(loc);
  op.results = {result.index};
  ops_.push_back(std::move(op));
  return result;
}

Reg CircuitBuilder::add_register(const std::string& name, double initial,
                                 std::source_location loc) {
  RegisterDecl decl;
  decl.name = name;
  decl.initial = initial;
  decl.declared_at = loc;
  registers_.push_back(std::move(decl));
  return Reg{static_cast<std::uint32_t>(registers_.size() - 1)};
}

Sig CircuitBuilder::read(Reg reg, std::source_location loc) {
  if (reg.index >= registers_.size()) {
    throw std::logic_error("CircuitBuilder::read: invalid register at " +
                           site(loc));
  }
  if (registers_[reg.index].read_done) {
    throw std::logic_error(
        "CircuitBuilder::read: register '" + registers_[reg.index].name +
        "' read twice (declared at " +
        site(registers_[reg.index].declared_at) + "; first read at " +
        site(registers_[reg.index].read_at) + "; second read at " +
        site(loc) + "); use fanout() on the read value");
  }
  registers_[reg.index].read_done = true;
  registers_[reg.index].read_at = loc;
  Op op;
  op.kind = OpKind::kRead;
  op.reg = reg.index;
  const Sig result = new_sig(loc);
  op.results = {result.index};
  ops_.push_back(std::move(op));
  return result;
}

void CircuitBuilder::write(Reg reg, Sig value, std::source_location loc) {
  if (reg.index >= registers_.size()) {
    throw std::logic_error("CircuitBuilder::write: invalid register at " +
                           site(loc));
  }
  if (registers_[reg.index].write_done) {
    throw std::logic_error(
        "CircuitBuilder::write: register '" + registers_[reg.index].name +
        "' written twice (declared at " +
        site(registers_[reg.index].declared_at) + "; first write at " +
        site(registers_[reg.index].written_at) + "; second write at " +
        site(loc) + ")");
  }
  registers_[reg.index].write_done = true;
  registers_[reg.index].written_at = loc;
  mark_consumed(value, "write", loc);
  sinks_.push_back(Sink{SinkKind::kRegister, value.index, reg.index, {}});
}

void CircuitBuilder::output(const std::string& name, Sig value,
                            std::source_location loc) {
  mark_consumed(value, "output", loc);
  sinks_.push_back(Sink{SinkKind::kOutput, value.index, UINT32_MAX, name});
}

void CircuitBuilder::output_pair(const std::string& pos_name,
                                 const std::string& neg_name, Sig pos,
                                 Sig neg, std::source_location loc) {
  output(pos_name, pos, loc);
  output(neg_name, neg, loc);
  output_annihilations_.emplace_back(pos_name, neg_name);
}

void CircuitBuilder::annihilate_registers(Reg a, Reg b) {
  if (a.index >= registers_.size() || b.index >= registers_.size() ||
      a.index == b.index) {
    throw std::logic_error(
        "CircuitBuilder::annihilate_registers: invalid register pair");
  }
  register_annihilations_.emplace_back(a.index, b.index);
}

Sig CircuitBuilder::add(Sig a, Sig b, std::source_location loc) {
  mark_consumed(a, "add", loc);
  mark_consumed(b, "add", loc);
  Op op;
  op.kind = OpKind::kAdd;
  op.operands = {a.index, b.index};
  const Sig result = new_sig(loc);
  op.results = {result.index};
  ops_.push_back(std::move(op));
  return result;
}

std::vector<Sig> CircuitBuilder::fanout(Sig value, std::size_t copies,
                                        std::source_location loc) {
  if (copies == 0) {
    throw std::logic_error("CircuitBuilder::fanout: need >= 1 copy");
  }
  mark_consumed(value, "fanout", loc);
  Op op;
  op.kind = OpKind::kFanout;
  op.operands = {value.index};
  std::vector<Sig> results;
  results.reserve(copies);
  for (std::size_t i = 0; i < copies; ++i) {
    const Sig sig = new_sig(loc);
    op.results.push_back(sig.index);
    results.push_back(sig);
  }
  ops_.push_back(std::move(op));
  return results;
}

Sig CircuitBuilder::scale(Sig value, std::uint32_t numerator,
                          std::uint32_t halvings, std::source_location loc) {
  if (numerator == 0) {
    throw std::logic_error("CircuitBuilder::scale: numerator must be >= 1");
  }
  mark_consumed(value, "scale", loc);
  Op op;
  op.kind = OpKind::kScale;
  op.operands = {value.index};
  op.scale_numerator = numerator;
  op.scale_halvings = halvings;
  const Sig result = new_sig(loc);
  op.results = {result.index};
  ops_.push_back(std::move(op));
  return result;
}

Sig CircuitBuilder::min(Sig a, Sig b, std::source_location loc) {
  mark_consumed(a, "min", loc);
  mark_consumed(b, "min", loc);
  Op op;
  op.kind = OpKind::kMin;
  op.operands = {a.index, b.index};
  const Sig result = new_sig(loc);
  op.results = {result.index};
  ops_.push_back(std::move(op));
  return result;
}

void CircuitBuilder::discard(Sig value, std::source_location loc) {
  mark_consumed(value, "discard", loc);
  sinks_.push_back(Sink{SinkKind::kDiscard, value.index, UINT32_MAX, {}});
}

CompiledCircuit CircuitBuilder::compile(
    core::ReactionNetwork& network, const ClockSpec& clock_spec,
    const std::string& prefix, const compile::CompileOptions& options) const {
  // --- static checks --------------------------------------------------------
  for (std::uint32_t s = 0; s < sig_count_; ++s) {
    if (!sig_consumed_[s]) {
      throw std::logic_error("CircuitBuilder::compile: signal #" +
                             std::to_string(s) + " (defined at " +
                             site(sig_sites_[s].defined_at) +
                             ") is never consumed (dangling value would "
                             "accumulate); use discard() if intentional");
    }
  }
  for (const RegisterDecl& reg : registers_) {
    if (!reg.read_done) {
      throw std::logic_error("CircuitBuilder::compile: register '" + reg.name +
                             "' (declared at " + site(reg.declared_at) +
                             ") is never read; its value would accumulate");
    }
    if (!reg.write_done) {
      throw std::logic_error("CircuitBuilder::compile: register '" + reg.name +
                             "' (declared at " + site(reg.declared_at) +
                             ") is never written");
    }
  }
  auto assumed_zero = [&](const std::string& name) {
    for (const std::string& port : options.assume_zero_inputs) {
      if (port == name) return true;
    }
    return false;
  };

  const auto lowering_start = std::chrono::steady_clock::now();
  compile::LoweringContext ctx(network, prefix);

  // --- clock ----------------------------------------------------------------
  ClockSpec spec = clock_spec;
  if (spec.prefix == "clk") spec.prefix = prefix + "_clk";
  CompiledCircuit compiled;
  compiled.clock = build_clock(ctx, spec);

  // --- species --------------------------------------------------------------
  // One wire species per signal.
  std::vector<SpeciesId> wires(sig_count_);
  for (std::uint32_t s = 0; s < sig_count_; ++s) {
    wires[s] = ctx.species(prefix + "_w" + std::to_string(s));
  }
  // Register color triples (R_i, G_i, B_i); the initial value sits in R.
  std::vector<compile::ColorTriple> triples(registers_.size());
  for (std::size_t i = 0; i < registers_.size(); ++i) {
    triples[i] = ctx.color_triple(registers_[i].name, registers_[i].initial);
    compiled.register_state.emplace(registers_[i].name, triples[i].red);
    ctx.declare_root(triples[i].red, compile::PortRole::kState);
  }

  // The combinational release runs during the RED phase; the register's two
  // internal hops run during GREEN and BLUE.
  const SpeciesId phase_r = compiled.clock.phase_r;
  const SpeciesId phase_g = compiled.clock.phase_g;
  const SpeciesId phase_b = compiled.clock.phase_b;

  // Register internal hops: R_i -> G_i (green phase), G_i -> B_i (blue).
  for (std::size_t i = 0; i < registers_.size(); ++i) {
    const std::string& name = registers_[i].name;
    ctx.gated_transfer(triples[i].red, triples[i].green, phase_g,
                       prefix + ".reg." + name + ".r2g");
    ctx.gated_transfer(triples[i].green, triples[i].blue, phase_b,
                       prefix + ".reg." + name + ".g2b");
  }

  // Dual-rail normalization: the coupled registers' parked red species
  // annihilate (fast) while they wait for the next green phase.
  for (const auto& [a, b] : register_annihilations_) {
    ctx.annihilation(triples[a].red, triples[b].red,
                     prefix + ".normalize." + registers_[a].name + "." +
                         registers_[b].name);
  }

  // --- ops ------------------------------------------------------------------
  modules::EmitOptions fast_op;
  fast_op.category = RateCategory::kFast;
  std::size_t scale_counter = 0;
  for (const Op& op : ops_) {
    switch (op.kind) {
      case OpKind::kInput: {
        const SpeciesId port = ctx.species(prefix + "_in_" + op.name);
        compiled.inputs.emplace(op.name, port);
        if (!assumed_zero(op.name)) {
          ctx.declare_root(port, compile::PortRole::kInput);
        }
        ctx.gated_transfer(port, wires[op.results[0]], phase_r,
                           prefix + ".release.in." + op.name);
        break;
      }
      case OpKind::kRead: {
        ctx.gated_transfer(triples[op.reg].blue, wires[op.results[0]],
                           phase_r,
                           prefix + ".release.reg." + registers_[op.reg].name);
        break;
      }
      case OpKind::kAdd: {
        fast_op.label = prefix + ".op";
        modules::add_into(network, wires[op.operands[0]],
                          wires[op.operands[1]], wires[op.results[0]],
                          fast_op);
        ctx.tag_pending(compile::ReactionTag::kFastOp);
        break;
      }
      case OpKind::kFanout: {
        fast_op.label = prefix + ".op";
        std::vector<SpeciesId> outs;
        outs.reserve(op.results.size());
        for (const std::uint32_t r : op.results) outs.push_back(wires[r]);
        modules::duplicate(network, wires[op.operands[0]], outs, fast_op);
        ctx.tag_pending(compile::ReactionTag::kFastOp);
        break;
      }
      case OpKind::kScale: {
        fast_op.label = prefix + ".op";
        modules::scale_dyadic(network, wires[op.operands[0]],
                              wires[op.results[0]], op.scale_numerator,
                              op.scale_halvings,
                              prefix + "_scale" + std::to_string(scale_counter),
                              fast_op);
        ctx.tag_pending(compile::ReactionTag::kFastOp);
        ++scale_counter;
        break;
      }
      case OpKind::kMin: {
        fast_op.label = prefix + ".op";
        modules::min_into(network, wires[op.operands[0]],
                          wires[op.operands[1]], wires[op.results[0]],
                          fast_op);
        ctx.tag_pending(compile::ReactionTag::kFastOp);
        // Drain the |a-b| leftover of the larger operand during the
        // following green phase (after the red combinational phase ends).
        for (const std::uint32_t operand : op.operands) {
          ctx.gated_drain(phase_g, wires[operand], prefix + ".min.drain");
        }
        break;
      }
    }
  }

  // --- sinks ------------------------------------------------------------------
  // Dataflow paths terminate with fast, un-gated transfers: the wires only
  // carry value during the red phase, and the deposit must complete within
  // it.
  for (const Sink& sink : sinks_) {
    switch (sink.kind) {
      case SinkKind::kRegister: {
        ctx.fast_transfer(wires[sink.signal], triples[sink.reg].red,
                          prefix + ".sink.reg." + registers_[sink.reg].name);
        break;
      }
      case SinkKind::kOutput: {
        const SpeciesId port = ctx.species(prefix + "_out_" + sink.name);
        compiled.outputs.emplace(sink.name, port);
        ctx.declare_root(port, compile::PortRole::kOutput);
        ctx.fast_transfer(wires[sink.signal], port,
                          prefix + ".sink.out." + sink.name);
        break;
      }
      case SinkKind::kDiscard: {
        ctx.gated_drain(phase_g, wires[sink.signal], prefix + ".discard");
        break;
      }
    }
  }

  // Output-pair normalization (after the ports exist).
  for (const auto& [pos_name, neg_name] : output_annihilations_) {
    ctx.annihilation(compiled.output(pos_name), compiled.output(neg_name),
                     prefix + ".normalize.out." + pos_name);
  }

  // --- passes ---------------------------------------------------------------
  const double lowering_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    lowering_start)
          .count();
  const compile::FinalizeResult fin = ctx.finalize(options, lowering_seconds);
  if (fin.optimized) {
    auto remap_ports = [&](std::map<std::string, SpeciesId>& ports) {
      for (auto it = ports.begin(); it != ports.end();) {
        const SpeciesId mapped = fin(it->second);
        if (mapped == SpeciesId::invalid()) {
          it = ports.erase(it);  // the pass pipeline proved the cone dead
        } else {
          it->second = mapped;
          ++it;
        }
      }
    };
    remap_ports(compiled.inputs);
    remap_ports(compiled.outputs);
    remap_ports(compiled.register_state);
    compiled.clock.remap(fin);
  }

  return compiled;
}

}  // namespace mrsc::sync
