#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::int64_t now_ns() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

std::int64_t Tracer::record(const char* name, std::uint64_t op,
                            std::int64_t parent, std::int64_t start_ns,
                            std::int64_t end_ns) {
  std::lock_guard lock(mutex_);
  spans_.push_back({name, start_ns, end_ns, parent, op});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t Tracer::open(const char* name, std::uint64_t op,
                          std::int64_t parent) {
  const std::int64_t start = now_ns();
  return record(name, op, parent, start, start);
}

void Tracer::close(std::int64_t index) {
  const std::int64_t end = now_ns();
  std::lock_guard lock(mutex_);
  spans_.at(static_cast<std::size_t>(index)).end_ns = end;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t parent = spans[i].parent;
    if (parent >= 0 && static_cast<std::size_t>(parent) < spans.size()) {
      children[static_cast<std::size_t>(parent)].push_back(i);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    covered.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t lo = std::max(spans[c].start_ns, span.start_ns);
      const std::int64_t hi = std::min(spans[c].end_ns, span.end_ns);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    std::int64_t union_ns = 0;
    std::int64_t run_lo = 0;
    std::int64_t run_hi = -1;
    for (const auto& [lo, hi] : covered) {
      if (run_hi < run_lo || lo > run_hi) {
        if (run_hi > run_lo) union_ns += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) union_ns += run_hi - run_lo;
    self[i] = std::max<std::int64_t>(0, span.end_ns - span.start_ns) - union_ns;
  }
  return self;
}

void write_spans(const std::string& path, const std::vector<Span>& spans,
                 const std::vector<std::int64_t>& self_ns) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << "op\tspan\tparent\tname\tstart_ns\tend_ns\tself_ns\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << s.op << '\t' << i << '\t' << s.parent << '\t' << s.name << '\t'
        << s.start_ns << '\t' << s.end_ns << '\t' << self_ns[i] << '\n';
  }
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

}  // namespace perfbench
