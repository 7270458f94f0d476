// obs/tsdb.cpp — zstsdb implementation. See tsdb.hpp for the model.

#include "obs/tsdb.hpp"

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "obs/http.hpp"
#include "obs/journal.hpp"

namespace zombiescope::obs {

std::int64_t parse_duration_ms(std::string_view text) {
  if (text.empty()) return 0;
  std::int64_t mult = 1000;  // bare number = seconds
  const char suffix = text.back();
  if (suffix == 's' || suffix == 'm' || suffix == 'h') {
    text.remove_suffix(1);
    mult = suffix == 's' ? 1000 : suffix == 'm' ? 60'000 : 3'600'000;
  }
  std::int64_t n = 0;
  const char* first = text.data();
  const char* last = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(first, last, n);
  if (ec != std::errc() || ptr != last || n <= 0) return 0;
  if (n > (std::int64_t{1} << 40)) return 0;  // keep n * mult far from overflow
  return n * mult;
}


namespace {

constexpr std::int64_t kNoBucket = std::int64_t{-1} << 62;

/// zs_live_records_total -> live.records_total: drop the zs_ prefix,
/// turn the first remaining '_' (the module separator) into '.'.
std::string map_registry_name(std::string_view raw) {
  if (raw.substr(0, 3) == "zs_") raw.remove_prefix(3);
  std::string out(raw);
  auto pos = out.find('_');
  if (pos != std::string::npos) out[pos] = '.';
  return out;
}

std::string fmt_double(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string fmt_t_seconds(std::int64_t t_ms) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%lld.%03d",
                static_cast<long long>(t_ms / 1000),
                static_cast<int>(t_ms % 1000));
  return buf;
}

const char* kind_name(SeriesKind k) {
  return k == SeriesKind::kCounter ? "counter" : "gauge";
}

const char* state_name(AlertState s) {
  switch (s) {
    case AlertState::kOk: return "ok";
    case AlertState::kPending: return "pending";
    case AlertState::kFiring: return "firing";
  }
  return "ok";
}

}  // namespace

// ---------------------------------------------------------------------------
// Storage

/// One tier's ring. Single writer (the sampler) pushes bucket-aligned
/// points; readers copy the window lock-free (see read() for the
/// proof obligation).
struct Tsdb::Ring {
  struct Slot {
    std::atomic<std::int64_t> t{0};
    std::atomic<double> v{0.0};
  };

  Ring(std::int64_t step, std::size_t n)
      : step_ms(step), cap(n), slots(new Slot[n]) {}

  const std::int64_t step_ms;
  const std::size_t cap;
  std::unique_ptr<Slot[]> slots;
  std::atomic<std::uint64_t> head{0};  // total points ever pushed

  // Downsampling accumulator — touched only by the sampler thread.
  std::int64_t acc_bucket = kNoBucket;
  double acc_sum = 0.0;
  double acc_last = 0.0;
  std::uint32_t acc_n = 0;
  std::int64_t last_pushed_bucket = kNoBucket;

  void push(std::int64_t t, double v) {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    Slot& s = slots[h % cap];
    s.t.store(t, std::memory_order_relaxed);
    s.v.store(v, std::memory_order_relaxed);
    head.store(h + 1, std::memory_order_release);
  }

  /// A bucket's point is pushed when the first sample of the *next*
  /// bucket arrives (counter: last cumulative value; gauge: mean).
  /// The last_pushed_bucket guard keeps ring timestamps strictly
  /// increasing even if the wall clock steps backwards.
  void tick(std::int64_t t_ms, double v, SeriesKind kind) {
    const std::int64_t bucket = t_ms / step_ms;
    if (acc_n > 0 && bucket < acc_bucket) return;  // clock went backwards
    if (acc_n > 0 && bucket != acc_bucket) {
      if (acc_bucket > last_pushed_bucket) {
        const double out = kind == SeriesKind::kCounter
                               ? acc_last
                               : acc_sum / static_cast<double>(acc_n);
        push(acc_bucket * step_ms, out);
        last_pushed_bucket = acc_bucket;
      }
      acc_sum = 0.0;
      acc_n = 0;
    }
    if (acc_n == 0) acc_bucket = bucket;
    acc_sum += v;
    acc_last = v;
    ++acc_n;
  }

  /// Lock-free snapshot, oldest first. Copy the window below the
  /// acquired head, then re-read the head: a slot holding index i is
  /// only reused by the write of index i+cap, which can begin no
  /// earlier than head == i+cap — so after observing head h2, every
  /// copied index >= h2 - cap + 1 is provably untorn.
  std::vector<TsdbPoint> read() const {
    const std::uint64_t h = head.load(std::memory_order_acquire);
    const std::uint64_t n = h < cap ? h : cap;
    const std::uint64_t first = h - n;
    std::vector<TsdbPoint> out;
    out.reserve(n);
    for (std::uint64_t i = first; i < h; ++i) {
      const Slot& s = slots[i % cap];
      out.push_back({s.t.load(std::memory_order_relaxed),
                     s.v.load(std::memory_order_relaxed)});
    }
    const std::uint64_t h2 = head.load(std::memory_order_acquire);
    const std::uint64_t safe_first = h2 >= cap ? h2 - cap + 1 : 0;
    if (safe_first > first) {
      out.erase(out.begin(),
                out.begin() + static_cast<std::ptrdiff_t>(safe_first - first));
    }
    return out;
  }
};

struct Tsdb::Series {
  Series(std::string n, SeriesKind k, const std::vector<TsdbTier>& tiers)
      : name(std::move(n)), kind(k) {
    rings.reserve(tiers.size());
    for (const auto& t : tiers) {
      rings.push_back(std::make_unique<Ring>(t.step_ms, t.slots));
    }
  }

  void tick(std::int64_t t_ms, double v) {
    for (auto& r : rings) r->tick(t_ms, v, kind);
    newest_sample_ms.store(t_ms, std::memory_order_relaxed);
  }

  const std::string name;
  const SeriesKind kind;
  std::vector<std::unique_ptr<Ring>> rings;  // finest first
  std::atomic<std::int64_t> newest_sample_ms{0};
};

struct Tsdb::RuleState {
  AlertState state = AlertState::kOk;
  std::int64_t since_ms = 0;          // when `state` was entered
  std::int64_t pending_since_ms = 0;  // first tick of the current breach run
  std::int64_t clear_since_ms = 0;    // first tick of the current clear run
  double last_value = 0.0;
  double last_threshold = 0.0;
  bool evaluated = false;
  // kRate bookkeeping: previous cumulative sample.
  bool have_prev = false;
  double prev_v = 0.0;
  std::int64_t prev_t_ms = 0;
};

// ---------------------------------------------------------------------------
// Lifecycle

std::vector<TsdbTier> Tsdb::default_tiers() {
  return {{1'000, 900}, {10'000, 720}, {60'000, 1440}};
}

Tsdb::Tsdb(Config cfg) : cfg_(std::move(cfg)) {
  if (cfg_.tiers.empty()) cfg_.tiers = default_tiers();
  if (cfg_.cadence_ms < 10) cfg_.cadence_ms = 10;
  auto& reg = Registry::global();
  m_samples_ = reg.counter("zs_tsdb_samples_total");
  m_fired_ = reg.counter("zs_alerts_fired_total");
  m_dropped_series_ = reg.counter("zs_tsdb_series_dropped_total");
  m_active_ = reg.gauge("zs_alerts_active");
}

Tsdb::~Tsdb() { stop(); }

void Tsdb::add_probe(std::string name, SeriesKind kind,
                     std::function<double()> fn) {
  probes_.push_back({std::move(name), kind, std::move(fn)});
}

void Tsdb::add_rule(AlertRule rule) {
  if (rule.clear_threshold == AlertRule::kUnsetThreshold) {
    rule.clear_threshold = rule.threshold;
  }
  std::lock_guard<std::mutex> lock(alert_mutex_);
  rules_.push_back(std::move(rule));
  rule_states_.push_back(std::make_unique<RuleState>());
}

bool Tsdb::start() {
  if (thread_.joinable()) return false;
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stop_requested_ = false;
  }
  thread_ = std::thread([this] { sampler_loop(); });
  return true;
}

void Tsdb::stop() {
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stop_requested_ = true;
  }
  wake_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Tsdb::sampler_loop() {
  std::unique_lock<std::mutex> lock(wake_mutex_);
  while (!stop_requested_) {
    lock.unlock();
    const auto now = std::chrono::system_clock::now().time_since_epoch();
    sample_once(
        std::chrono::duration_cast<std::chrono::milliseconds>(now).count());
    lock.lock();
    wake_cv_.wait_for(lock, std::chrono::milliseconds(cfg_.cadence_ms),
                      [this] { return stop_requested_; });
  }
}

// ---------------------------------------------------------------------------
// Sampling

Tsdb::Series* Tsdb::find_or_create(std::string_view name, SeriesKind kind) {
  std::lock_guard<std::mutex> lock(series_mutex_);
  auto it = series_.find(name);
  if (it != series_.end()) return it->second.get();
  if (series_.size() >= cfg_.max_series) {
    m_dropped_series_.inc();
    return nullptr;
  }
  auto s = std::make_unique<Series>(std::string(name), kind, cfg_.tiers);
  Series* raw = s.get();
  series_.emplace(std::string(name), std::move(s));
  return raw;
}

const Tsdb::Series* Tsdb::find(std::string_view name) const {
  std::lock_guard<std::mutex> lock(series_mutex_);
  auto it = series_.find(name);
  return it == series_.end() ? nullptr : it->second.get();
}

void Tsdb::sample_once(std::int64_t now_ms) {
  tick_values_.clear();

  const Snapshot snap = Registry::global().snapshot();
  for (const auto& [name, v] : snap.counters) {
    tick_values_[map_registry_name(name)] = {static_cast<double>(v),
                                             SeriesKind::kCounter};
  }
  for (const auto& [name, v] : snap.gauges) {
    tick_values_[map_registry_name(name)] = {static_cast<double>(v),
                                             SeriesKind::kGauge};
  }
  // Registry histograms are skipped: the latency registry below is the
  // richer source for the same stage timings.

  // zslat quantiles over the *interval* since the previous tick, so a
  // long-lived cumulative histogram cannot freeze the series at its
  // all-time shape. Empty intervals publish nothing (the series gaps).
  auto lats = LatRegistry::global().snapshot_all();
  for (auto& [name, cur] : lats) {
    LatSnapshot interval = cur;
    for (const auto& [pname, prev] : lat_prev_) {
      if (pname == name) {
        // A reset histogram (count went down) restarts the interval.
        if (cur.count >= prev.count) interval = cur.diff_since(prev);
        break;
      }
    }
    if (interval.count == 0) continue;
    for (const auto& [q, tag] :
         {std::pair<double, const char*>{0.50, "p50"},
          std::pair<double, const char*>{0.95, "p95"},
          std::pair<double, const char*>{0.99, "p99"}}) {
      tick_values_["latency:" + name + ":" + tag] = {
          interval.quantile_ns(q) / 1e9, SeriesKind::kGauge};
    }
  }
  lat_prev_ = std::move(lats);

  for (const auto& p : probes_) {
    tick_values_[p.name] = {p.fn(), p.kind};
  }

  for (const auto& [name, vk] : tick_values_) {
    if (!std::isfinite(vk.first)) continue;
    if (Series* s = find_or_create(name, vk.second)) {
      s->tick(now_ms, vk.first);
    }
  }

  m_samples_.inc();
  evaluate_rules(now_ms);
}

// ---------------------------------------------------------------------------
// Alert engine

double Tsdb::baseline_for(const AlertRule& rule, std::int64_t now_ms,
                          bool* have) const {
  *have = false;
  const Series* s = find(rule.metric);
  if (s == nullptr || s->rings.empty()) return 0.0;
  const std::int64_t exclude_ms =
      static_cast<std::int64_t>(rule.for_seconds * 1000.0);
  const std::int64_t window_ms =
      static_cast<std::int64_t>(rule.baseline_window_seconds * 1000.0);
  const std::int64_t hi = now_ms - exclude_ms;
  const std::int64_t lo = hi - window_ms;
  double sum = 0.0;
  std::size_t n = 0;
  for (const TsdbPoint& p : s->rings.front()->read()) {
    if (p.t_ms < lo || p.t_ms > hi) continue;
    sum += p.v;
    ++n;
  }
  if (n < rule.baseline_min_samples) return 0.0;
  const double mean = sum / static_cast<double>(n);
  if (mean <= 0.0) return 0.0;
  *have = true;
  return mean;
}

void Tsdb::evaluate_rules(std::int64_t now_ms) {
  std::lock_guard<std::mutex> lock(alert_mutex_);
  auto& journal = Journal::global();
  std::size_t firing = 0;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const AlertRule& rule = rules_[i];
    RuleState& st = *rule_states_[i];
    if (st.state == AlertState::kFiring) ++firing;  // corrected below

    const auto tick = tick_values_.find(rule.metric);
    if (tick == tick_values_.end()) continue;  // no sample: hold state
    const double raw = tick->second.first;

    double value = raw;
    double threshold = rule.threshold;
    double clear = rule.clear_threshold;
    switch (rule.mode) {
      case AlertRule::Mode::kValue:
        break;
      case AlertRule::Mode::kRate: {
        if (!st.have_prev) {
          st.have_prev = true;
          st.prev_v = raw;
          st.prev_t_ms = now_ms;
          continue;
        }
        const double dt = static_cast<double>(now_ms - st.prev_t_ms) / 1000.0;
        if (dt <= 0.0) continue;
        value = raw >= st.prev_v ? (raw - st.prev_v) / dt : raw / dt;
        st.prev_v = raw;
        st.prev_t_ms = now_ms;
        break;
      }
      case AlertRule::Mode::kBaselineRatio: {
        bool have = false;
        const double baseline = baseline_for(rule, now_ms, &have);
        if (!have) continue;  // not enough history yet: hold state
        threshold = rule.threshold * baseline;
        clear = rule.clear_threshold * baseline;
        break;
      }
    }

    st.evaluated = true;
    st.last_value = value;
    st.last_threshold = threshold;

    const bool gt = rule.op == AlertRule::Op::kGt;
    const bool breach = gt ? value > threshold : value < threshold;
    const bool cleared = gt ? value <= clear : value >= clear;
    const auto for_ms = static_cast<std::int64_t>(rule.for_seconds * 1000.0);
    const auto clear_ms =
        static_cast<std::int64_t>(rule.clear_for_seconds * 1000.0);

    if (st.state != AlertState::kFiring) {
      if (breach) {
        if (st.state == AlertState::kOk) {
          st.state = AlertState::kPending;
          st.since_ms = now_ms;
          st.pending_since_ms = now_ms;
        }
        if (now_ms - st.pending_since_ms >= for_ms) {
          st.state = AlertState::kFiring;
          st.since_ms = now_ms;
          st.clear_since_ms = 0;
          ++firing;
          m_fired_.inc();
          if (journal.enabled(kCatAlert)) {
            JournalEvent ev;
            ev.type = JournalEventType::kAlertFiring;
            ev.time = now_ms / 1000;
            ev.a = static_cast<std::int64_t>(std::llround(value * 1000.0));
            ev.b = static_cast<std::int64_t>(std::llround(threshold * 1000.0));
            ev.c = static_cast<std::int64_t>(i);
            journal.emit(kCatAlert, ev);
          }
        }
      } else if (cleared) {
        if (st.state == AlertState::kPending) {
          st.state = AlertState::kOk;
          st.since_ms = now_ms;
        }
        st.pending_since_ms = 0;
      } else if (st.state == AlertState::kPending) {
        // In the hysteresis band: hold Pending but restart its clock —
        // only an uninterrupted breach run may fire.
        st.pending_since_ms = now_ms;
      }
    } else {
      --firing;  // re-decide below
      if (cleared) {
        if (st.clear_since_ms == 0) st.clear_since_ms = now_ms;
        if (now_ms - st.clear_since_ms >= clear_ms) {
          st.state = AlertState::kOk;
          st.since_ms = now_ms;
          st.clear_since_ms = 0;
          st.pending_since_ms = 0;
          if (journal.enabled(kCatAlert)) {
            JournalEvent ev;
            ev.type = JournalEventType::kAlertResolved;
            ev.time = now_ms / 1000;
            ev.a = static_cast<std::int64_t>(std::llround(value * 1000.0));
            ev.b = static_cast<std::int64_t>(std::llround(threshold * 1000.0));
            ev.c = static_cast<std::int64_t>(i);
            journal.emit(kCatAlert, ev);
          }
        }
      } else {
        // Breach or in-band: the clear run is broken.
        st.clear_since_ms = 0;
      }
      if (st.state == AlertState::kFiring) ++firing;
    }
  }
  m_active_.set(static_cast<std::int64_t>(firing));
}

std::vector<AlertStatus> Tsdb::alert_statuses() const {
  std::lock_guard<std::mutex> lock(alert_mutex_);
  std::vector<AlertStatus> out;
  out.reserve(rules_.size());
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const AlertRule& rule = rules_[i];
    const RuleState& st = *rule_states_[i];
    out.push_back({rule.name, rule.metric, st.state, st.last_value,
                   st.evaluated ? st.last_threshold : rule.threshold,
                   rule.for_seconds, st.since_ms});
  }
  return out;
}

std::size_t Tsdb::firing_count() const {
  std::lock_guard<std::mutex> lock(alert_mutex_);
  std::size_t n = 0;
  for (const auto& st : rule_states_) {
    if (st->state == AlertState::kFiring) ++n;
  }
  return n;
}

std::string Tsdb::firing_names() const {
  std::lock_guard<std::mutex> lock(alert_mutex_);
  std::string out;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    if (rule_states_[i]->state != AlertState::kFiring) continue;
    if (!out.empty()) out += ',';
    out += rules_[i].name;
  }
  return out;
}

std::string Tsdb::alerts_json() const {
  const auto statuses = alert_statuses();
  std::size_t firing = 0;
  for (const auto& s : statuses) {
    if (s.state == AlertState::kFiring) ++firing;
  }
  std::string out = "{\"firing\":" + std::to_string(firing) + ",\"rules\":[";
  bool first = true;
  for (const auto& s : statuses) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"" + s.name + "\",\"metric\":\"" + s.metric +
           "\",\"state\":\"" + state_name(s.state) +
           "\",\"value\":" + fmt_double(s.value) +
           ",\"threshold\":" + fmt_double(s.threshold) +
           ",\"for_seconds\":" + fmt_double(s.for_seconds) +
           ",\"since\":" + std::to_string(s.since_ms / 1000) + "}";
  }
  out += "]}";
  return out;
}

// ---------------------------------------------------------------------------
// Queries

std::vector<std::string> Tsdb::metric_names() const {
  std::lock_guard<std::mutex> lock(series_mutex_);
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [name, s] : series_) out.push_back(name);
  return out;
}

Tsdb::QueryResult Tsdb::query(std::string_view metric, std::int64_t range_ms,
                              std::int64_t step_ms, bool as_rate) const {
  QueryResult r;
  if (range_ms <= 0 || step_ms < 0) {
    r.status = QueryStatus::kBadRequest;
    r.error = "range must be positive and step non-negative";
    return r;
  }
  const Series* s = find(metric);
  if (s == nullptr) {
    r.status = QueryStatus::kNotFound;
    r.error = "unknown metric";
    return r;
  }
  r.kind = s->kind;
  if (as_rate && s->kind != SeriesKind::kCounter) {
    r.status = QueryStatus::kBadRequest;
    r.error = "agg=rate requires a counter series";
    return r;
  }

  // Finest tier that can cover the whole range; the coarsest when
  // nothing can.
  const Ring* ring = s->rings.back().get();
  for (const auto& t : s->rings) {
    if (t->step_ms * static_cast<std::int64_t>(t->cap) >= range_ms) {
      ring = t.get();
      break;
    }
  }
  std::int64_t eff_step = step_ms > ring->step_ms ? step_ms : ring->step_ms;
  eff_step = (eff_step + ring->step_ms - 1) / ring->step_ms * ring->step_ms;
  r.step_ms = eff_step;

  const std::int64_t now = s->newest_sample_ms.load(std::memory_order_relaxed);
  std::vector<TsdbPoint> pts = ring->read();
  // Rate derivation needs the point *before* the window for the first
  // in-window delta; over-collect by one tier step.
  const std::int64_t lo = now - range_ms - (as_rate ? ring->step_ms : 0);
  std::size_t skip = 0;
  while (skip < pts.size() && pts[skip].t_ms < lo) ++skip;
  pts.erase(pts.begin(), pts.begin() + static_cast<std::ptrdiff_t>(skip));

  if (as_rate) {
    std::vector<TsdbPoint> rates;
    rates.reserve(pts.size());
    for (std::size_t i = 1; i < pts.size(); ++i) {
      const double dt =
          static_cast<double>(pts[i].t_ms - pts[i - 1].t_ms) / 1000.0;
      if (dt <= 0.0) continue;
      // Counter reset (process restart): the new cumulative value IS
      // the increment since the reset — Prometheus rate() semantics.
      const double dv =
          pts[i].v >= pts[i - 1].v ? pts[i].v - pts[i - 1].v : pts[i].v;
      rates.push_back({pts[i].t_ms, dv / dt});
    }
    pts = std::move(rates);
    skip = 0;
    while (skip < pts.size() && pts[skip].t_ms < now - range_ms) ++skip;
    pts.erase(pts.begin(), pts.begin() + static_cast<std::ptrdiff_t>(skip));
  }

  if (eff_step > ring->step_ms && !pts.empty()) {
    // Regroup to the coarser requested step: cumulative counters keep
    // the last value per bucket, gauges and rates average.
    const bool mean = as_rate || s->kind == SeriesKind::kGauge;
    std::vector<TsdbPoint> grouped;
    std::int64_t bucket = kNoBucket;
    double sum = 0.0;
    double last = 0.0;
    std::size_t n = 0;
    auto flush = [&] {
      if (n == 0) return;
      grouped.push_back(
          {bucket * eff_step, mean ? sum / static_cast<double>(n) : last});
      sum = 0.0;
      n = 0;
    };
    for (const TsdbPoint& p : pts) {
      const std::int64_t b = p.t_ms / eff_step;
      if (n > 0 && b != bucket) flush();
      bucket = b;
      sum += p.v;
      last = p.v;
      ++n;
    }
    flush();
    pts = std::move(grouped);
  }

  r.points = std::move(pts);
  return r;
}

// ---------------------------------------------------------------------------
// HTTP

HttpResponse Tsdb::handle_query(std::string_view target) const {
  auto bad = [](std::string msg) {
    return HttpResponse{400, "application/json",
                        "{\"error\":\"" + std::move(msg) + "\"}\n", ""};
  };
  const std::string metric = query_string(target, "metric");
  if (metric.empty()) return bad("missing metric parameter");
  const std::string range_text = query_string(target, "range");
  if (range_text.empty()) return bad("missing range parameter");
  const std::int64_t range_ms = parse_duration_ms(range_text);
  if (range_ms <= 0) return bad("unparseable range (want e.g. 30s, 5m, 2h)");
  std::int64_t step_ms = 0;
  const std::string step_text = query_string(target, "step");
  if (!step_text.empty()) {
    step_ms = parse_duration_ms(step_text);
    if (step_ms <= 0) return bad("unparseable step (want e.g. 1s, 10s, 1m)");
  }
  bool as_rate = false;
  const std::string agg = query_string(target, "agg");
  if (agg == "rate") {
    as_rate = true;
  } else if (!agg.empty() && agg != "raw") {
    return bad("unknown agg (want rate or raw)");
  }

  const QueryResult q = query(metric, range_ms, step_ms, as_rate);
  if (q.status == QueryStatus::kNotFound) {
    return {404, "application/json", "{\"error\":\"unknown metric\"}\n", ""};
  }
  if (q.status == QueryStatus::kBadRequest) {
    return bad(q.error);
  }

  std::string body = "{\"metric\":\"" + metric + "\",\"kind\":\"" +
                     kind_name(q.kind) + "\",\"agg\":\"" +
                     (as_rate ? "rate" : "raw") +
                     "\",\"step_seconds\":" + fmt_double(
                         static_cast<double>(q.step_ms) / 1000.0) +
                     ",\"points\":[";
  bool first = true;
  for (const TsdbPoint& p : q.points) {
    if (!first) body += ',';
    first = false;
    body += '[';
    body += fmt_t_seconds(p.t_ms);
    body += ',';
    body += fmt_double(p.v);
    body += ']';
  }
  body += "]}\n";
  return {200, "application/json", std::move(body), ""};
}

HttpResponse Tsdb::handle_metrics(std::string_view) const {
  std::lock_guard<std::mutex> lock(series_mutex_);
  std::string body = "{\"metrics\":[";
  bool first = true;
  for (const auto& [name, s] : series_) {
    if (!first) body += ',';
    first = false;
    body += "{\"name\":\"" + name + "\",\"kind\":\"" + kind_name(s->kind) +
            "\"}";
  }
  body += "]}\n";
  return {200, "application/json", std::move(body), ""};
}

HttpResponse Tsdb::handle_alerts(std::string_view) const {
  return {200, "application/json", alerts_json() + "\n", ""};
}

void Tsdb::attach_http(HttpServer& server) {
  server.add_endpoint("/tsdb/query", [this](std::string_view target) {
    return handle_query(target);
  });
  server.add_endpoint("/tsdb/metrics", [this](std::string_view target) {
    return handle_metrics(target);
  });
  server.add_endpoint("/alerts", [this](std::string_view target) {
    return handle_alerts(target);
  });
}

}  // namespace zombiescope::obs
