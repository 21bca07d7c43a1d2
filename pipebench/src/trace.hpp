// Wall-clock bookkeeping for one benchmark pass: the timed units every
// end-to-end metric is derived from, and (in traced passes) the layer spans
// recorded around calls into the program's modules.
//
// Spans are kept in memory and written out once, when the pass ends. A
// span's self time is its duration minus the time its direct children
// cover. Shadow spans time extra calls the traced pass makes only to
// measure a layer the program calls internally; their time is taken out of
// the unit that contains them, so traced and untraced unit times stay
// comparable.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace pipebench {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span; records nothing when tracing is off.
  class Span {
   public:
    Span(Tracer& tracer, std::string name, bool shadow = false);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  /// Adds `v` to the named per-layer count (kept in traced passes only).
  void count(const std::string& name, double v);

  /// Seconds of shadow spans closed since the tracer was created.
  double shadow_seconds() const { return shadow_seconds_; }

  struct Stat {
    double total_ms = 0.0;
    double self_ms = 0.0;
    std::uint64_t calls = 0;
  };
  /// Per span name: total and self time and call count.
  std::map<std::string, Stat> stats() const;
  const std::map<std::string, double>& counts() const { return counts_; }

  /// Writes every span as one CSV line: name,parent,start_us,end_us,shadow.
  void write_spans(std::FILE* out) const;

 private:
  struct Record {
    std::string name;
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    bool shadow = false;       ///< inside a shadow call
    bool shadow_root = false;  ///< opened as the shadow call itself
  };

  std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Record> spans_;
  int open_ = -1;
  int shadow_depth_ = 0;
  double shadow_seconds_ = 0.0;
  std::map<std::string, double> counts_;
};

/// One timed unit of work: the granularity every end-to-end metric is
/// aggregated over (a per-unit minimum across passes, summed).
struct Unit {
  std::string name;
  std::string phase;
  double seconds = 0.0;
};

}  // namespace pipebench
