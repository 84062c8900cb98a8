#include "perfbench/src/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <unordered_map>

namespace perfbench {
namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ThreadIndex() {
  static std::atomic<int64_t> next{0};
  thread_local int64_t index = next.fetch_add(1);
  return index;
}

thread_local std::vector<SpanRecord> t_open;  // open spans, innermost last
thread_local int64_t t_op = -1;
thread_local bool t_muted = false;

std::string Escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();  // never destroyed: used at exit
  return *tracer;
}

Tracer::Tracer() : epoch_ns_(SteadyNowNs()) {}

const char* Tracer::Intern(const std::string& text) {
  return interned_.insert(text).first->c_str();
}

void Tracer::set_category(const std::string& category) {
  std::lock_guard<std::mutex> lock(mu_);
  category_.store(Intern(category));
}

double Tracer::NowUs() const { return (SteadyNowNs() - epoch_ns_) / 1e3; }

void Tracer::set_current_op(int64_t op) { t_op = op; }

void Tracer::set_thread_muted(bool muted) { t_muted = muted; }

int64_t Tracer::Begin(const char* name, double start_us) {
  SpanRecord record;
  record.name = name;
  record.parent = t_open.empty() ? -1 : t_open.back().id;
  record.op = t_op;
  record.thread = ThreadIndex();
  record.start_us = start_us;
  record.category = category_.load();
  record.id = next_id_++;
  t_open.push_back(std::move(record));
  return t_open.back().id;
}

void Tracer::End(int64_t id) {
  double end_us = NowUs();
  if (t_open.empty() || t_open.back().id != id) return;
  SpanRecord record = std::move(t_open.back());
  t_open.pop_back();
  record.end_us = end_us;
  std::lock_guard<std::mutex> lock(mu_);
  closed_.push_back(std::move(record));
}

void Tracer::Add(const std::string& name, int64_t parent, double start_us,
                 double end_us) {
  SpanRecord record;
  record.parent = parent;
  record.op = t_op;
  record.thread = ThreadIndex();
  record.start_us = start_us;
  record.end_us = end_us;
  record.category = category_.load();
  record.id = next_id_++;
  std::lock_guard<std::mutex> lock(mu_);
  record.name = Intern(name);
  closed_.push_back(std::move(record));
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::vector<SpanRecord> all = spans();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& span = all[i];
    std::fprintf(file,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%lld,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                 "\"parent\":%lld,\"op\":%lld}}%s\n",
                 Escape(span.name).c_str(), Escape(span.category).c_str(),
                 static_cast<long long>(span.thread), span.start_us,
                 span.end_us - span.start_us, static_cast<long long>(span.id),
                 static_cast<long long>(span.parent),
                 static_cast<long long>(span.op),
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

Span::Span(const char* name) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled() || t_muted) return;
  start_us_ = tracer.NowUs();
  id_ = tracer.Begin(name, start_us_);
}

Span::~Span() {
  if (id_ >= 0) Tracer::Get().End(id_);
}

std::map<std::string, double> SelfMsByLayer(
    const std::vector<SpanRecord>& spans, const std::string& category_prefix) {
  std::unordered_map<int64_t, std::vector<std::pair<double, double>>>
      children;
  for (const SpanRecord& span : spans) {
    if (span.parent >= 0) {
      children[span.parent].emplace_back(span.start_us, span.end_us);
    }
  }
  std::map<std::string, double> self_ms;
  for (const SpanRecord& span : spans) {
    if (std::string(span.category).rfind(category_prefix, 0) != 0) continue;
    // Union of the child intervals, clipped to this span.
    double covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      std::vector<std::pair<double, double>> parts = it->second;
      std::sort(parts.begin(), parts.end());
      double cursor = span.start_us;
      for (const auto& [start, end] : parts) {
        double from = std::max(start, cursor);
        double to = std::min(end, span.end_us);
        if (to > from) {
          covered += to - from;
          cursor = to;
        }
      }
    }
    std::string layer(span.name, std::strcspn(span.name, "."));
    self_ms[layer] += (span.end_us - span.start_us - covered) / 1e3;
  }
  return self_ms;
}

}  // namespace perfbench
