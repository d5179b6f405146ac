#include "sim/engine/compiled_system.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <type_traits>
#include <utility>

namespace mrsc::sim {

namespace {

ReactionKernel classify(std::span<const std::uint32_t> species,
                        std::span<const std::uint32_t> stoich) {
  if (species.size() == 1) {
    if (stoich[0] == 1) return ReactionKernel::kUnimolecular;
    if (stoich[0] == 2) return ReactionKernel::kDimer;
  } else if (species.size() == 2 && stoich[0] == 1 && stoich[1] == 1) {
    return ReactionKernel::kBimolecular;
  }
  return ReactionKernel::kGeneric;
}

/// Sorts (species, value) terms by species and sums the values of repeated
/// species in place ("G + G" written as two terms becomes one term of
/// stoichiometry 2). Reaction term lists are a handful of entries long.
template <class Value>
void merge_terms(std::vector<std::pair<std::uint32_t, Value>>& terms) {
  std::ranges::sort(terms, {}, &std::pair<std::uint32_t, Value>::first);
  std::size_t out = 0;
  for (std::size_t k = 0; k < terms.size(); ++k) {
    if (out > 0 && terms[out - 1].first == terms[k].first) {
      terms[out - 1].second += terms[k].second;
    } else {
      terms[out++] = terms[k];
    }
  }
  terms.resize(out);
}

/// Transposes a CSR relation (row -> columns) into column -> rows by
/// counting sort. Filling in row order leaves every output row sorted.
void transpose(std::span<const std::uint32_t> offsets,
               std::span<const std::uint32_t> columns,
               std::size_t column_count, std::vector<std::uint32_t>& out_offsets,
               std::vector<std::uint32_t>& out_rows) {
  out_offsets.assign(column_count + 1, 0);
  for (const std::uint32_t column : columns) ++out_offsets[column + 1];
  for (std::size_t c = 0; c < column_count; ++c) {
    out_offsets[c + 1] += out_offsets[c];
  }
  out_rows.resize(columns.size());
  std::vector<std::uint32_t> fill(out_offsets.begin(), out_offsets.end() - 1);
  for (std::size_t row = 0; row + 1 < offsets.size(); ++row) {
    for (std::uint32_t k = offsets[row]; k < offsets[row + 1]; ++k) {
      out_rows[fill[columns[k]]++] = static_cast<std::uint32_t>(row);
    }
  }
}

}  // namespace

CompiledSystem::CompiledSystem(const core::ReactionNetwork& network)
    : species_count_(network.species_count()) {
  const std::size_t m = network.reaction_count();
  rates_.reserve(m);
  orders_.reserve(m);
  kernels_.reserve(m);
  affects_own_.reserve(m);
  reactant_offsets_.reserve(m + 1);
  net_offsets_.reserve(m + 1);
  reactant_offsets_.push_back(0);
  net_offsets_.push_back(0);

  // Reaction tables: merged reactants and nonzero net changes, both sorted
  // by species index.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> reactants;
  std::vector<std::pair<std::uint32_t, std::int32_t>> net;
  for (const core::Reaction& r : network.reactions()) {
    rates_.push_back(network.effective_rate(r));
    orders_.push_back(r.order());

    reactants.clear();
    net.clear();
    for (const core::Term& t : r.reactants()) {
      const auto idx = static_cast<std::uint32_t>(t.species.index());
      reactants.emplace_back(idx, t.stoich);
      net.emplace_back(idx, -static_cast<std::int32_t>(t.stoich));
    }
    for (const core::Term& t : r.products()) {
      net.emplace_back(static_cast<std::uint32_t>(t.species.index()),
                       static_cast<std::int32_t>(t.stoich));
    }
    merge_terms(reactants);
    merge_terms(net);

    for (const auto& [idx, stoich] : reactants) {
      reactant_species_.push_back(idx);
      reactant_stoich_.push_back(stoich);
    }
    bool own = false;
    for (const auto& [idx, delta] : net) {
      if (delta == 0) continue;
      net_species_.push_back(idx);
      net_delta_.push_back(delta);
      for (const auto& [r_idx, r_stoich] : reactants) {
        if (r_idx == idx) own = true;
      }
    }
    reactant_offsets_.push_back(
        static_cast<std::uint32_t>(reactant_species_.size()));
    net_offsets_.push_back(static_cast<std::uint32_t>(net_species_.size()));
    affects_own_.push_back(own ? 1 : 0);
    const std::size_t j = rates_.size() - 1;
    kernels_.push_back(classify(reactant_species(j), reactant_stoich(j)));
  }

  // Species -> reactions reading it, and species -> reactions changing it.
  transpose(reactant_offsets_, reactant_species_, species_count_,
            species_dep_offsets_, species_dep_reactions_);
  std::vector<std::uint32_t> changer_offsets;
  std::vector<std::uint32_t> changers;
  transpose(net_offsets_, net_species_, species_count_, changer_offsets,
            changers);

  // Next-reaction dependency graph: j -> k when j == k or j changes a
  // species k reads. Edges are enumerated by target k in ascending order —
  // k itself, then every changer of each species k reads — so every j row
  // fills in sorted order with no sort pass; a per-target stamp drops
  // duplicate edges in O(1). One pass counts the rows and a second fills
  // them, so the build is linear in the candidate edge count. (Collecting
  // the edges by target and transposing them measured ~30% slower.)
  std::vector<std::uint32_t> stamp(m);
  auto for_each_edge = [&](auto&& emit) {
    std::ranges::fill(stamp, std::numeric_limits<std::uint32_t>::max());
    for (std::uint32_t k = 0; k < m; ++k) {
      stamp[k] = k;
      emit(k, k);
      for (const std::uint32_t idx : reactant_species(k)) {
        for (std::uint32_t c = changer_offsets[idx];
             c < changer_offsets[idx + 1]; ++c) {
          const std::uint32_t j = changers[c];
          if (stamp[j] == k) continue;
          stamp[j] = k;
          emit(j, k);
        }
      }
    }
  };
  dep_offsets_.assign(m + 1, 0);
  for_each_edge([&](std::uint32_t j, std::uint32_t) { ++dep_offsets_[j + 1]; });
  for (std::size_t j = 0; j < m; ++j) dep_offsets_[j + 1] += dep_offsets_[j];
  dep_reactions_.resize(dep_offsets_[m]);
  std::vector<std::uint32_t> fill(dep_offsets_.begin(), dep_offsets_.end() - 1);
  for_each_edge(
      [&](std::uint32_t j, std::uint32_t k) { dep_reactions_[fill[j]++] = k; });
}

std::size_t CompiledSystem::footprint_bytes() const {
  const auto bytes = [](const auto& v) {
    using Element = typename std::decay_t<decltype(v)>::value_type;
    return v.capacity() * sizeof(Element);
  };
  return bytes(rates_) + bytes(orders_) + bytes(kernels_) +
         bytes(affects_own_) + bytes(reactant_offsets_) +
         bytes(reactant_species_) + bytes(reactant_stoich_) +
         bytes(net_offsets_) + bytes(net_species_) + bytes(net_delta_) +
         bytes(dep_offsets_) + bytes(dep_reactions_) +
         bytes(species_dep_offsets_) + bytes(species_dep_reactions_);
}

double CompiledSystem::flux(std::size_t j, std::span<const double> x) const {
  const std::uint32_t begin = reactant_offsets_[j];
  switch (kernels_[j]) {
    case ReactionKernel::kUnimolecular:
      return rates_[j] * x[reactant_species_[begin]];
    case ReactionKernel::kDimer: {
      const double xi = x[reactant_species_[begin]];
      return rates_[j] * xi * xi;
    }
    case ReactionKernel::kBimolecular:
      return rates_[j] * x[reactant_species_[begin]] *
             x[reactant_species_[begin + 1]];
    case ReactionKernel::kGeneric:
      break;
  }
  double f = rates_[j];
  const std::uint32_t end = reactant_offsets_[j + 1];
  for (std::uint32_t k = begin; k < end; ++k) {
    const double xi = x[reactant_species_[k]];
    const std::uint32_t stoich = reactant_stoich_[k];
    for (std::uint32_t s = 0; s < stoich; ++s) f *= xi;
  }
  return f;
}

void CompiledSystem::rhs(std::span<const double> x,
                         std::span<double> dxdt) const {
  std::ranges::fill(dxdt, 0.0);
  const std::size_t m = rates_.size();
  for (std::size_t j = 0; j < m; ++j) {
    const double f = flux(j, x);
    if (f == 0.0) continue;
    const std::uint32_t begin = net_offsets_[j];
    const std::uint32_t end = net_offsets_[j + 1];
    for (std::uint32_t k = begin; k < end; ++k) {
      dxdt[net_species_[k]] += static_cast<double>(net_delta_[k]) * f;
    }
  }
}

void CompiledSystem::jacobian(std::span<const double> x,
                              util::Matrix& jac) const {
  if (jac.rows() != species_count_ || jac.cols() != species_count_) {
    jac = util::Matrix(species_count_, species_count_);
  } else {
    jac.fill(0.0);
  }
  const std::size_t m_total = rates_.size();
  for (std::size_t j = 0; j < m_total; ++j) {
    const std::uint32_t begin = reactant_offsets_[j];
    const std::uint32_t end = reactant_offsets_[j + 1];
    // d(flux)/dx_m = k * s_m * x_m^(s_m - 1) * prod_{i != m} x_i^{s_i}
    for (std::uint32_t mk = begin; mk < end; ++mk) {
      const std::uint32_t m_idx = reactant_species_[mk];
      const std::uint32_t m_stoich = reactant_stoich_[mk];
      double dflux = rates_[j] * static_cast<double>(m_stoich);
      for (std::uint32_t s = 0; s + 1 < m_stoich; ++s) dflux *= x[m_idx];
      for (std::uint32_t ik = begin; ik < end; ++ik) {
        if (ik == mk) continue;
        const double xi = x[reactant_species_[ik]];
        const std::uint32_t stoich = reactant_stoich_[ik];
        for (std::uint32_t s = 0; s < stoich; ++s) dflux *= xi;
      }
      if (dflux == 0.0) continue;
      const std::uint32_t nb = net_offsets_[j];
      const std::uint32_t ne = net_offsets_[j + 1];
      for (std::uint32_t k = nb; k < ne; ++k) {
        jac(net_species_[k], m_idx) +=
            static_cast<double>(net_delta_[k]) * dflux;
      }
    }
  }
}

void CompiledSystem::scaled_rates(double omega, std::span<double> out) const {
  for (std::size_t j = 0; j < rates_.size(); ++j) {
    // Identical operands and operation as `propensity`, so hoisting it out
    // of the event loop cannot change a single bit.
    out[j] =
        rates_[j] * std::pow(omega, 1.0 - static_cast<double>(orders_[j]));
  }
}

double CompiledSystem::propensity_scaled(std::size_t j,
                                         std::span<const std::int64_t> n,
                                         double scaled) const {
  const std::uint32_t begin = reactant_offsets_[j];
  // Each specialization reproduces the generic falling-factorial loop below
  // for its shape: counts multiplied left-to-right in species-sorted order,
  // with the loop's exact early-out (<= 0 check before each multiply) folded
  // in.
  switch (kernels_[j]) {
    case ReactionKernel::kUnimolecular: {
      const std::int64_t c = n[reactant_species_[begin]];
      return c <= 0 ? 0.0 : scaled * static_cast<double>(c);
    }
    case ReactionKernel::kDimer: {
      const std::int64_t c = n[reactant_species_[begin]];
      if (c <= 1) return 0.0;
      return scaled * static_cast<double>(c) * static_cast<double>(c - 1);
    }
    case ReactionKernel::kBimolecular: {
      const std::int64_t c0 = n[reactant_species_[begin]];
      if (c0 <= 0) return 0.0;
      const std::int64_t c1 = n[reactant_species_[begin + 1]];
      if (c1 <= 0) return 0.0;
      return scaled * static_cast<double>(c0) * static_cast<double>(c1);
    }
    case ReactionKernel::kGeneric:
      break;
  }
  double a = scaled;
  const std::uint32_t end = reactant_offsets_[j + 1];
  for (std::uint32_t k = begin; k < end; ++k) {
    std::int64_t count = n[reactant_species_[k]];
    const std::uint32_t stoich = reactant_stoich_[k];
    for (std::uint32_t s = 0; s < stoich; ++s) {
      if (count <= 0) return 0.0;
      a *= static_cast<double>(count);
      --count;
    }
  }
  return a;
}

double CompiledSystem::propensity(std::size_t j,
                                  std::span<const std::int64_t> n,
                                  double omega) const {
  const double scaled =
      rates_[j] * std::pow(omega, 1.0 - static_cast<double>(orders_[j]));
  return propensity_scaled(j, n, scaled);
}

void CompiledSystem::apply(std::size_t j, std::span<std::int64_t> n) const {
  const std::uint32_t begin = net_offsets_[j];
  const std::uint32_t end = net_offsets_[j + 1];
  for (std::uint32_t k = begin; k < end; ++k) {
    n[net_species_[k]] += net_delta_[k];
  }
}

}  // namespace mrsc::sim
