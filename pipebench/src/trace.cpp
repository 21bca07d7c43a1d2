#include "trace.hpp"

namespace pipebench {

Tracer::Span::Span(Tracer& tracer, std::string name, bool shadow)
    : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  Record rec;
  rec.name = std::move(name);
  rec.parent = tracer_.open_;
  rec.shadow = shadow || tracer_.shadow_depth_ > 0;
  rec.shadow_root = shadow;
  rec.start_ns = tracer_.now_ns();
  tracer_.spans_.push_back(std::move(rec));
  index_ = static_cast<int>(tracer_.spans_.size()) - 1;
  tracer_.open_ = index_;
  if (shadow) ++tracer_.shadow_depth_;
}

Tracer::Span::~Span() {
  if (index_ < 0) return;
  Record& rec = tracer_.spans_[static_cast<std::size_t>(index_)];
  rec.end_ns = tracer_.now_ns();
  tracer_.open_ = rec.parent;
  if (rec.shadow_root) {
    --tracer_.shadow_depth_;
    // Nested shadow calls are already inside the outer one's interval.
    if (tracer_.shadow_depth_ == 0) {
      tracer_.shadow_seconds_ +=
          static_cast<double>(rec.end_ns - rec.start_ns) * 1e-9;
    }
  }
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

void Tracer::count(const std::string& name, double v) {
  if (enabled_) counts_[name] += v;
}

std::map<std::string, Tracer::Stat> Tracer::stats() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Record& rec : spans_) {
    if (rec.parent >= 0) {
      child_ns[static_cast<std::size_t>(rec.parent)] +=
          rec.end_ns - rec.start_ns;
    }
  }
  std::map<std::string, Stat> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& rec = spans_[i];
    const std::int64_t dur = rec.end_ns - rec.start_ns;
    Stat& s = out[rec.name];
    s.total_ms += static_cast<double>(dur) * 1e-6;
    s.self_ms += static_cast<double>(dur - child_ns[i]) * 1e-6;
    ++s.calls;
  }
  return out;
}

void Tracer::write_spans(std::FILE* out) const {
  std::fprintf(out, "name,parent,start_us,end_us,shadow\n");
  for (const Record& rec : spans_) {
    std::fprintf(out, "%s,%d,%.3f,%.3f,%d\n", rec.name.c_str(), rec.parent,
                 static_cast<double>(rec.start_ns) * 1e-3,
                 static_cast<double>(rec.end_ns) * 1e-3, rec.shadow ? 1 : 0);
  }
}

}  // namespace pipebench
