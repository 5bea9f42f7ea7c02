// serve_hot and serve_cold: a real `gpuhms_serve --socket` daemon driven by a
// closed loop over a seeded slice of the workload's traffic (end-to-end
// metrics) and by open-loop traffic (traced run), every response checked
// byte for byte against an in-process PredictionService.
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <unordered_map>

#include <unistd.h>

#include "arch/arch_registry.hpp"
#include "kernel/placement.hpp"
#include "layers.hpp"
#include "model/search.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"
#include "serve_io.hpp"
#include "sim/simulator.hpp"
#include "workloads.hpp"

namespace perfbench {

using gpuhms::DataPlacement;
using gpuhms::serve::Json;
using gpuhms::serve::PredictionService;
using gpuhms::serve::ServeOptions;

namespace {

// Load: one generator thread on four connections, and a daemon with a
// reactor and two executor threads, so runnable threads never outnumber
// the four cores and no request waits for a scheduler time slice.
constexpr int kConnections = 4;
constexpr int kDaemons = 3;  // set up per plain run; setup_s is their median
// Plain-run rounds, at least: each request's fastest of three samples, so
// a slow stretch of the host does not also cut the number of samples.
constexpr std::size_t kMinRounds = 3;
constexpr std::size_t kStreamLen = 1 << 16;  // generated requests, cycled

struct Traffic {
  std::vector<std::string> kernels, archs;
  std::vector<std::string> search_kernels;  // targets of search requests
  bool zipf = false;  // Zipf over keys; else uniform (kernel, arch), then key
  double p_batch = 0.0, p_search = 0.0, p_health = 0.0, p_metrics = 0.0;
  std::size_t kernel_cache = 16, prediction_cache = 4096;  // daemon defaults
  std::size_t slice = 0;  // requests the plain run sends, in rounds
  double nominal_rps = 0.0;
  std::vector<double> ladder;  // open-loop rates, ascending
  double limit_ms = 0.0;       // p99 limit of a passing rung
  double window_s = 0.0;       // open-loop percentiles are taken per window
  std::size_t traced_requests = 0;  // sequential probe length
};

Traffic traffic_for(const std::string& workload) {
  Traffic t;
  if (workload == "serve_hot") {
    t.kernels = {"triad", "spmv", "md", "transpose"};
    t.archs = {"kepler", "hbm2"};
    t.zipf = true;
    t.p_batch = 0.08;
    t.p_health = 0.01;
    t.p_metrics = 0.01;
    t.slice = 1000;
    // High enough that the cores rarely idle: at low rates the wake-up of
    // an idle virtual CPU, not the daemon, sets the tail.
    t.nominal_rps = 32000;
    t.ladder = {32000, 48000, 64000, 80000, 100000, 130000};
    t.limit_ms = 2.0;
    t.window_s = 0.125;
    t.traced_requests = 5000;
  } else {
    t.kernels = {"cfd", "qtc", "s3d", "transpose", "sort", "md"};
    t.archs = gpuhms::ArchRegistry::builtin().names();
    // B&B on md and qtc costs about the same on every arch, so the seeded
    // arch of a search does not change the work of a pass.
    t.search_kernels = {"md", "qtc"};
    t.p_search = 0.01;
    t.p_health = 0.005;
    t.p_metrics = 0.005;
    t.slice = 800;
    // Every kernel entry fits; the prediction cache holds a seventh of the
    // keys, so most predicts miss, insert and evict.
    t.kernel_cache = 32;
    t.prediction_cache = 64;
    t.nominal_rps = 100;
    t.ladder = {100, 140, 180, 220, 260, 300};
    t.limit_ms = 250.0;
    t.window_s = 1.0;
    t.traced_requests = 150;
  }
  return t;
}

std::vector<std::string> daemon_flags(const Traffic& t) {
  return {"--train-overlap", "--executor-threads=2",
          "--kernel-cache=" + std::to_string(t.kernel_cache),
          "--prediction-cache=" + std::to_string(t.prediction_cache)};
}

ServeOptions service_options(const Traffic& t) {
  ServeOptions o;
  o.train_overlap = true;
  o.kernel_cache_capacity = t.kernel_cache;
  o.prediction_cache_capacity = t.prediction_cache;
  return o;
}

struct Group {
  std::string kernel, arch;
  std::vector<std::string> placements;  // every legal placement
};

std::vector<Group> key_space(const Traffic& t) {
  std::vector<Group> groups;
  for (const auto& k : t.kernels) {
    const auto bench = load_kernel(k);
    for (const auto& a : t.archs) {
      const auto& arch = gpuhms::ArchRegistry::builtin().find(a)->arch;
      Group g{k, a, {}};
      for (const auto& p :
           gpuhms::enumerate_placement_space(bench.kernel, arch, 1u << 20).placements)
        g.placements.push_back(p.to_string());
      groups.push_back(std::move(g));
    }
  }
  return groups;
}

std::string target(const std::string& kernel, const std::string& arch) {
  return "\"benchmark\":\"" + kernel + "\",\"arch\":\"" + arch + "\"";
}

std::string predict_body(const Group& g, const std::string& placement) {
  return "\"op\":\"predict\"," + target(g.kernel, g.arch) + ",\"placement\":\"" +
         placement + "\"";
}

std::string batch_body(const Group& g, const std::vector<std::string>& ps) {
  std::string b =
      "\"op\":\"predict_batch\"," + target(g.kernel, g.arch) + ",\"placements\":[";
  for (std::size_t i = 0; i < ps.size(); ++i)
    b += (i ? ",\"" : "\"") + ps[i] + "\"";
  return b + "]";
}

// A seeded request stream with the workload's verb mix in exact shares.
// The seed draws the order, every key, every batch's placements and every
// search's arch; the verb counts are the same for every seed, and uniform
// traffic deals the (kernel, arch) groups and each group's placements out
// evenly over the requests, so the work of a stream hardly depends on the
// seed.
std::vector<Request> make_stream(const Traffic& t,
                                 const std::vector<Group>& groups,
                                 std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  auto shuffle = [&rng](auto& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
  };
  enum class Verb { kPredict, kBatch, kSearch, kHealth, kMetrics };
  std::vector<Verb> verbs;
  for (const auto& [verb, share] :
       {std::pair{Verb::kHealth, t.p_health}, std::pair{Verb::kMetrics, t.p_metrics},
        std::pair{Verb::kSearch, t.p_search}, std::pair{Verb::kBatch, t.p_batch}})
    verbs.insert(verbs.end(), static_cast<std::size_t>(std::llround(share * n)), verb);
  verbs.resize(n, Verb::kPredict);
  shuffle(verbs);
  // Zipf: flattened keys in a seeded rank order, so each seed has its own
  // hot set. Uniform: every group equally often, in a seeded order.
  std::vector<std::pair<std::size_t, std::size_t>> keys;
  for (std::size_t g = 0; g < groups.size(); ++g)
    for (std::size_t p = 0; p < groups[g].placements.size(); ++p)
      keys.push_back({g, p});
  shuffle(keys);
  const Zipf zipf(keys.size(), 0.99);
  std::vector<std::size_t> group_seq(n);
  for (std::size_t i = 0; i < n; ++i) group_seq[i] = i % groups.size();
  shuffle(group_seq);
  // Uniform: each group deals out its placements in seeded rounds, so every
  // placement is sent equally often (give or take one) whatever the seed.
  std::vector<std::vector<std::size_t>> deck(groups.size());
  std::vector<std::size_t> dealt(groups.size());
  auto deal = [&](std::size_t g) {
    if (dealt[g] % groups[g].placements.size() == 0) {
      deck[g].resize(groups[g].placements.size());
      for (std::size_t p = 0; p < deck[g].size(); ++p) deck[g][p] = p;
      shuffle(deck[g]);
    }
    return deck[g][dealt[g]++ % deck[g].size()];
  };

  std::vector<Request> out;
  out.reserve(n);
  std::size_t searches = 0;
  for (std::size_t i = 0; i < n; ++i) {
    auto [g, p] = t.zipf ? keys[zipf.draw(rng)]
                         : std::pair{group_seq[i], std::size_t{0}};
    const Group& grp = groups[g];
    if (!t.zipf && verbs[i] == Verb::kPredict) p = deal(g);
    switch (verbs[i]) {
      case Verb::kHealth:
        out.push_back({"\"op\":\"health\"", false});
        break;
      case Verb::kMetrics:
        out.push_back({"\"op\":\"metrics\"", false});
        break;
      case Verb::kSearch:
        out.push_back({"\"op\":\"search\"," +
                       target(t.search_kernels[searches++ % t.search_kernels.size()],
                              t.archs[rng.below(t.archs.size())]) +
                       ",\"algo\":\"bnb\""});
        break;
      case Verb::kBatch: {
        std::vector<std::string> ps;
        for (int k = 0; k < 16; ++k)
          ps.push_back(grp.placements[rng.below(grp.placements.size())]);
        out.push_back({batch_body(grp, ps), true, ps.size()});
        break;
      }
      case Verb::kPredict:
        out.push_back({predict_body(grp, grp.placements[p]), true, 1});
        break;
    }
  }
  return out;
}

std::string digest(const std::vector<Request>& reqs) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& r : reqs) h = fnv1a(h, r.body);
  return fmt("%016llx", static_cast<unsigned long long>(h));
}

// Every group's whole placement space as predict_batch requests: the cache
// warm-up, and the source of the daemon's chosen placements.
std::vector<Request> batch_script(const std::vector<Group>& groups) {
  std::vector<Request> out;
  for (const auto& g : groups)
    out.push_back({batch_body(g, g.placements), true, g.placements.size()});
  return out;
}

// Expected responses from an in-process PredictionService: the same line
// must produce the same bytes as the daemon's answer.
class Reference {
 public:
  explicit Reference(const ServeOptions& o) : service_(o) {}

  // Empty when `got` is correct, else why not.
  std::string check(std::uint64_t id, const Request& req, const std::string& got) {
    if (got.empty()) return "no response to request " + std::to_string(id);
    if (response_id(got) != static_cast<long long>(id))
      return "response carries the wrong id: " + got.substr(0, 80);
    if (!req.deterministic) {
      const auto j = Json::parse(got);
      const Json* ok = j.ok() ? j->find("ok") : nullptr;
      return ok != nullptr && ok->is_bool() && ok->as_bool()
                 ? ""
                 : "not ok: " + got.substr(0, 160);
    }
    const std::string& want = expected(req.body);
    const std::size_t head = got.find(',');
    if (head == std::string::npos || got.compare(head + 1, std::string::npos, want) != 0)
      return "differs from the in-process reference: " + got.substr(0, 160);
    if (want.find("\"ok\":true") == std::string::npos)
      return "reference answered not ok: " + want.substr(0, 160);
    return "";
  }

  // The response to `body` after its id member.
  const std::string& expected(const std::string& body) {
    auto it = cache_.find(body);
    if (it == cache_.end()) {
      const std::string r = service_.handle_line(request_line(0, body));
      it = cache_.emplace(body, r.substr(r.find(',') + 1)).first;
    }
    return it->second;
  }

  // Computes the expected responses of every deterministic request in
  // `reqs` up front, on four threads.
  void prefetch(const std::vector<Request>& reqs) {
    std::vector<std::string> bodies;
    for (const auto& r : reqs)
      if (r.deterministic && !cache_.count(r.body)) bodies.push_back(r.body);
    std::sort(bodies.begin(), bodies.end());
    bodies.erase(std::unique(bodies.begin(), bodies.end()), bodies.end());
    std::vector<std::string> out(bodies.size());
    gpuhms::ThreadPool pool(4);
    pool.parallel_for(bodies.size(), [&](int, std::size_t i) {
      const std::string r = service_.handle_line(request_line(0, bodies[i]));
      out[i] = r.substr(r.find(',') + 1);
    });
    for (std::size_t i = 0; i < bodies.size(); ++i) cache_.emplace(bodies[i], std::move(out[i]));
  }

  PredictionService& service() { return service_; }

 private:
  PredictionService service_;
  std::unordered_map<std::string, std::string> cache_;
};

// Checks one phase's responses; every mismatch is a failed op.
void check_phase(Reference& ref, const PhaseResult& ph,
                 const std::vector<Request>& reqs, std::size_t offset,
                 Report& report) {
  for (std::size_t i = 0; i < ph.sent; ++i) {
    const std::string why =
        ref.check(ph.ids[i], reqs[(offset + i) % reqs.size()], ph.responses[i]);
    report.op(why.empty());
    if (!why.empty()) report.fail(why);
  }
}

struct Counters {
  double requests = 0, pred_hits = 0, pred_misses = 0, evictions = 0,
         kernel_hits = 0, kernel_misses = 0, batched = 0, batch_calls = 0;
};

bool read_counters(Conn& c, Counters& out) {
  std::string resp;
  if (!c.roundtrip("{\"op\":\"metrics\"}", resp)) return false;
  const auto j = Json::parse(resp);
  if (!j.ok()) return false;
  auto num = [&](const Json& o, const char* k) {
    const Json* v = o.find(k);
    return v != nullptr && v->is_number() ? v->as_number() : 0.0;
  };
  const Json* pc = j->find("prediction_cache");
  const Json* kc = j->find("kernel_cache");
  if (pc == nullptr || kc == nullptr) return false;
  out.requests = num(*j, "requests");
  out.batched = num(*j, "batched_predicts");
  out.batch_calls = num(*j, "batch_calls");
  out.pred_hits = num(*pc, "hits");
  out.pred_misses = num(*pc, "misses");
  out.evictions = num(*pc, "evictions");
  out.kernel_hits = num(*kc, "hits");
  out.kernel_misses = num(*kc, "misses");
  return true;
}

// A daemon brought to its timed state: spawned, trained, every kernel entry
// built and the prediction cache filled by the batch script.
struct Deployment {
  std::unique_ptr<Daemon> daemon;
  std::vector<std::string> warm_responses;
  double setup_s = 0.0;
};

Deployment deploy(const Config& cfg, const Traffic& t,
                  const std::vector<Request>& warm, int rep) {
  Deployment d;
  const std::string sock =
      cfg.run_dir + "/serve-" + std::to_string(::getpid()) + "-" +
      std::to_string(rep) + ".sock";
  const auto t0 = Clock::now();
  d.daemon = std::make_unique<Daemon>(cfg.serve_bin, daemon_flags(t), sock,
                                      cfg.run_dir + "/daemon.log");
  if (!d.daemon->wait_ready(120.0)) {
    d.daemon.reset();
    return d;
  }
  Conn c(sock);
  for (std::size_t i = 0; i < warm.size(); ++i) {
    std::string resp;
    if (!c.roundtrip(request_line(i, warm[i].body), resp)) resp.clear();
    d.warm_responses.push_back(std::move(resp));
  }
  d.setup_s = secs_since(t0);
  return d;
}

// Lowest predicted cycles per group from the batch-script responses
// (first minimum, as the search engines break ties).
std::vector<std::pair<std::string, double>> group_winners(
    const std::vector<std::string>& responses) {
  std::vector<std::pair<std::string, double>> out;
  for (const auto& r : responses) {
    std::pair<std::string, double> best{"", std::numeric_limits<double>::infinity()};
    const auto j = Json::parse(r);
    const Json* res = j.ok() ? j->find("results") : nullptr;
    for (std::size_t i = 0; res != nullptr && res->is_array() && i < res->size(); ++i) {
      const Json* c = res->at(i).find("predicted_cycles");
      const Json* p = res->at(i).find("placement");
      if (c != nullptr && p != nullptr && c->is_number() && p->is_string() &&
          c->as_number() < best.second)
        best = {p->as_string(), c->as_number()};
    }
    out.push_back(best);
  }
  return out;
}

// realized_speedup and winner_error_pct over the groups' chosen placements,
// against the simulator.
void accuracy_metrics(const std::vector<Group>& groups,
                      const std::vector<std::pair<std::string, double>>& winners,
                      Report& report) {
  std::vector<double> log_speedup(groups.size()), err(groups.size());
  gpuhms::ThreadPool pool(4);
  pool.parallel_for(groups.size(), [&](int, std::size_t g) {
    const auto bench = load_kernel(groups[g].kernel);
    const auto& arch = gpuhms::ArchRegistry::builtin().find(groups[g].arch)->arch;
    const auto win = DataPlacement::from_string(bench.kernel, winners[g].first);
    const double sample =
        static_cast<double>(gpuhms::simulate(bench.kernel, bench.sample, arch).cycles);
    const double chosen =
        win ? static_cast<double>(gpuhms::simulate(bench.kernel, *win, arch).cycles)
            : sample;
    log_speedup[g] = std::log(sample / chosen);
    err[g] = std::fabs(winners[g].second / chosen - 1.0);
  });
  double ls = 0, e = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    ls += log_speedup[g];
    e += err[g];
  }
  report.metric("realized_speedup", std::exp(ls / groups.size()), "x");
  report.metric("winner_error_pct", 100.0 * e / groups.size(), "%");
}

bool rung_passes(const PhaseResult& ph, const Traffic& t, std::size_t failed,
                 bool* gen_late) {
  const double p99 = windowed(ph, ph.latency_ms, 0.99, t.window_s);
  // The generator itself ran late: the rung measures the client, not the
  // daemon, so it is invalid rather than passing.
  *gen_late = windowed(ph, ph.lag_ms, 0.99, t.window_s) > 0.1 * t.limit_ms;
  const double backlog_allowed =
      std::max<double>(kConnections, ph.rate * t.limit_ms * 1e-3);
  return !*gen_late && failed == 0 && p99 <= t.limit_ms &&
         static_cast<double>(ph.backlog_end) <= backlog_allowed;
}

// The plain run: kDaemons daemons are set up, then run the seeded slice of
// the workload's own traffic in rounds, at least kMinRounds and more while
// the run's time lasts. The slice is cut into one chunk per daemon; in
// round r, daemon d runs chunk (d + r) % kDaemons twice. First
// pipelined: the whole chunk is sent at once on one connection, so the
// daemon's threads never idle and a search blocks the requests queued
// behind it; script_s is the sum over chunks of each chunk's fastest wall.
// Then closed: one request in flight, each timed alone. Each request's
// latency is its fastest closed sample (one per round), and p50/p99 are
// taken across the slice. A shared host preempts some samples and not
// others, and preemption only adds time. Every response is checked.
void plain_run(const Config& cfg, const Traffic& t, Report& report) {
  const std::vector<Group> groups = key_space(t);
  const std::vector<Request> warm = batch_script(groups);
  const std::vector<Request> slice = make_stream(t, groups, t.slice, cfg.seed);
  report.stamp("stream_digest", digest(slice));
  std::size_t predictions = 0;
  for (const auto& r : slice) predictions += r.predictions;
  Reference ref(service_options(t));
  ref.prefetch(slice);

  std::vector<Deployment> deps;
  std::vector<double> setups;
  for (int rep = 0; rep < kDaemons; ++rep) {
    deps.push_back(deploy(cfg, t, warm, rep));
    if (!deps.back().daemon) {
      report.fail("daemon did not start (see " + cfg.run_dir + "/daemon.log)");
      return;
    }
    setups.push_back(deps.back().setup_s);
    for (std::size_t i = 0; i < warm.size(); ++i) {
      const std::string why = ref.check(i, warm[i], deps.back().warm_responses[i]);
      report.op(why.empty());
      if (!why.empty()) report.fail(why);
    }
  }
  accuracy_metrics(groups, group_winners(deps.front().warm_responses), report);

  std::vector<std::unique_ptr<Conn>> conns;
  std::vector<Counters> before(deps.size());
  for (std::size_t d = 0; d < deps.size(); ++d) {
    conns.push_back(std::make_unique<Conn>(deps[d].daemon->socket_path()));
    if (!read_counters(*conns[d], before[d])) report.fail("metrics verb did not answer");
  }
  const std::size_t chunk = (slice.size() + deps.size() - 1) / deps.size();
  std::uint64_t next_id = 1000;
  // Sends slice[lo, hi) on `c` and checks every response; returns the wall.
  auto pass = [&](Conn& c, std::size_t lo, std::size_t hi, bool pipelined,
                  std::vector<std::vector<double>>& latency_ms) {
    std::vector<std::string> lines, got(hi - lo);
    for (std::size_t i = lo; i < hi; ++i)
      lines.push_back(request_line(next_id + i - lo, slice[i].body));
    const auto t0 = Clock::now();
    if (pipelined && !c.pipeline(lines, got)) got.assign(hi - lo, std::string());
    for (std::size_t k = 0; !pipelined && k < lines.size(); ++k) {
      const auto r0 = Clock::now();
      if (!c.roundtrip(lines[k], got[k], 60.0, /*spin=*/true)) got[k].clear();
      latency_ms[lo + k].push_back(secs_since(r0) * 1e3);
    }
    const double wall = secs_since(t0);
    for (std::size_t i = lo; i < hi; ++i) {
      const std::string why = ref.check(next_id + i - lo, slice[i], got[i - lo]);
      report.op(why.empty());
      if (!why.empty()) report.fail(why);
    }
    next_id += hi - lo;
    return wall;
  };
  std::vector<double> chunk_s(deps.size(), std::numeric_limits<double>::infinity());
  std::vector<std::vector<double>> latency_ms(slice.size());
  const auto t_start = Clock::now();
  double round_s = 0.0;
  std::size_t rounds = 0;
  while (rounds < kMinRounds || secs_since(t_start) + round_s <= cfg.seconds) {
    const auto r0 = Clock::now();
    for (std::size_t d = 0; d < deps.size(); ++d) {
      const std::size_t c = (d + rounds) % deps.size();
      const std::size_t lo = c * chunk;
      const std::size_t hi = std::min(slice.size(), lo + chunk);
      chunk_s[c] = std::min(chunk_s[c], pass(*conns[d], lo, hi, true, latency_ms));
      pass(*conns[d], lo, hi, false, latency_ms);
    }
    ++rounds;
    round_s = secs_since(r0);
  }
  std::vector<double> rss;
  for (std::size_t d = 0; d < deps.size(); ++d) {
    Counters after;
    if (!read_counters(*conns[d], after))
      report.fail("metrics verb did not answer");
    else if (after.kernel_misses != before[d].kernel_misses)
      report.fail("kernel cache missed after warm-up");
    rss.push_back(deps[d].daemon->peak_rss_mb());
  }
  std::vector<double> request_ms;
  for (const auto& l : latency_ms)
    request_ms.push_back(*std::min_element(l.begin(), l.end()));

  double wall = 0.0;
  for (double w : chunk_s) wall += w;
  report.metric("setup_s", median(setups), "s");
  report.metric("peak_rss_mb", median(rss), "MB");
  report.metric("latency_p50_ms", percentile(request_ms, 0.5), "ms");
  report.metric("latency_p99_ms", percentile(request_ms, 0.99), "ms");
  report.metric("script_s", wall, "s");
  report.metric("predictions_per_s", static_cast<double>(predictions) / wall, "1/s");
  std::string per_daemon;
  for (std::size_t d = 0; d < deps.size(); ++d)
    per_daemon += fmt(" [setup %.3f s, peak %.1f MB]", setups[d], rss[d]);
  report.note(fmt("slice of %zu requests (%zu predictions) in %zu rounds on %d daemons:",
                  slice.size(), predictions, rounds, kDaemons) + per_daemon);
}

// The open loop: latency at the nominal rate, timed from each request's
// due time, then the ladder. Every response is checked against `ref`.
struct OpenLoop {
  PhaseResult nominal;
  double max_rate = 0.0;
};

OpenLoop open_loop(const Config& cfg, const Traffic& t, const std::string& socket,
                   Reference& ref, const std::vector<Request>& stream,
                   std::size_t offset, std::uint64_t next_id, Report& report) {
  std::vector<std::unique_ptr<Conn>> owned;
  std::vector<Conn*> conns;
  for (int i = 0; i < kConnections; ++i) {
    owned.push_back(std::make_unique<Conn>(socket));
    conns.push_back(owned.back().get());
  }
  OpenLoop ol;
  ol.nominal = run_open_loop(conns, stream, offset, t.nominal_rps, 0.3 * cfg.seconds,
                             next_id, cfg.seed);
  check_phase(ref, ol.nominal, stream, offset, report);
  offset += ol.nominal.sent;
  next_id += ol.nominal.sent;
  report.note(fmt("nominal %.0f req/s: %zu requests in %.0f windows of %.3f s; "
                  "whole-phase p99 %.3f ms, p999 %.3f ms",
                  t.nominal_rps, ol.nominal.sent, ol.nominal.duration_s / t.window_s,
                  t.window_s, percentile(ol.nominal.latency_ms, 0.99),
                  percentile(ol.nominal.latency_ms, 0.999)));

  // The ladder: the highest rate whose p99 meets the limit with no growing
  // backlog. A failing rung is refined by interpolating p99 to the limit.
  double pass_p99 = 0.0, pass_rate = 0.0;
  for (double rate : t.ladder) {
    PhaseResult ph = run_open_loop(conns, stream, offset, rate, 0.07 * cfg.seconds,
                                   next_id, cfg.seed + static_cast<std::uint64_t>(rate));
    const std::uint64_t failed_before = report.failed();
    check_phase(ref, ph, stream, offset, report);
    const std::size_t failed = report.failed() - failed_before;
    offset += ph.sent;
    next_id += ph.sent;
    bool late = false;
    const bool pass = rung_passes(ph, t, failed, &late);
    const double p99 = windowed(ph, ph.latency_ms, 0.99, t.window_s);
    report.note(fmt("rung %.0f req/s: sent %zu failed %zu p50 %.3f ms p99 %.3f ms "
                    "(whole rung %.3f ms) lag_p99 %.3f ms backlog_end %zu -> %s",
                    rate, ph.sent, failed, percentile(ph.latency_ms, 0.5), p99,
                    percentile(ph.latency_ms, 0.99),
                    windowed(ph, ph.lag_ms, 0.99, t.window_s), ph.backlog_end,
                    late ? "INVALID (generator late)" : pass ? "pass" : "fail"));
    if (pass) {
      ol.max_rate = pass_rate = rate;
      pass_p99 = p99;
      continue;
    }
    if (!late && failed == 0 && pass_rate > 0 && std::isfinite(p99) && p99 > pass_p99)
      ol.max_rate = pass_rate + (rate - pass_rate) * (t.limit_ms - pass_p99) /
                                    (p99 - pass_p99);
    break;
  }
  return ol;
}

// --- traced run ----------------------------------------------------------------

void traced_run(const Config& cfg, const Traffic& t, Report& report) {
  LayerValues lv;
  const std::vector<Group> groups = key_space(t);
  const std::vector<Request> stream = make_stream(t, groups, kStreamLen, cfg.seed);
  report.stamp("stream_digest", digest(stream));
  const std::vector<Request> warm = batch_script(groups);
  Deployment dep = deploy(cfg, t, warm, 0);
  if (!dep.daemon) {
    report.fail("daemon did not start (see " + cfg.run_dir + "/daemon.log)");
    return;
  }

  // A replica warmed identically: same options, same lines, same order.
  Reference ref(service_options(t));
  PredictionService& replica = ref.service();
  for (std::size_t i = 0; i < warm.size(); ++i) {
    const std::string want = replica.handle_line(request_line(i, warm[i].body));
    report.op(want == dep.warm_responses[i]);
    if (want != dep.warm_responses[i]) report.fail("warm-up response differs");
  }

  // The model layers, timed in-process on this workload's kernels.
  gpuhms::ThreadPool pool(4);
  double train_s = 0;
  const gpuhms::ToverlapModel overlap = train_overlap(pool, &train_s);
  std::vector<std::unique_ptr<Profiled>> prof;
  double profile_s = 0, skeleton_s = 0, sample_cycles = 0;
  for (const auto& g : groups) {
    prof.push_back(profile(g.kernel, g.arch, overlap));
    if (!prof.back()->ok) report.fail("profiling " + g.kernel + " on " + g.arch);
    profile_s += prof.back()->profile_s;
    skeleton_s += prof.back()->skeleton_s;
    sample_cycles += static_cast<double>(prof.back()->pred->sample_result().cycles);
  }
  auto group_of = [&](const Json& req) -> std::size_t {
    const std::string k = req.find("benchmark")->as_string();
    const std::string a = req.find("arch")->as_string();
    for (std::size_t g = 0; g < groups.size(); ++g)
      if (groups[g].kernel == k && groups[g].arch == a) return g;
    return groups.size();
  };

  // The cache and placement layers, replayed on caches of the daemon's
  // capacities fed the same key sequence the daemon saw, so hits, misses
  // and evictions line up with the replica's.
  gpuhms::BoundedCache<std::string, int> kernel_cache(t.kernel_cache,
                                                      gpuhms::CacheBackend::kSharded);
  gpuhms::BoundedCache<std::string, gpuhms::Prediction> pred_cache(
      t.prediction_cache, gpuhms::CacheBackend::kSharded);
  std::vector<std::string> prefix;
  for (const auto& p : prof)
    prefix.push_back(fmt("%016llx|%016llx|%016llx|",
                         static_cast<unsigned long long>(gpuhms::serve::fingerprint(p->bench.kernel)),
                         static_cast<unsigned long long>(gpuhms::serve::fingerprint(*p->arch)),
                         static_cast<unsigned long long>(
                             gpuhms::serve::fingerprint(gpuhms::ModelOptions{}))));
  struct CachePath {
    double cache_s = 0.0, placement_s = 0.0;
    std::vector<DataPlacement> missed;
  };
  auto cache_path = [&](const Json& req, std::size_t g) {
    CachePath cp;
    std::vector<std::string> ps;
    if (const Json* one = req.find("placement")) ps.push_back(one->as_string());
    if (const Json* many = req.find("placements"))
      for (std::size_t k = 0; k < many->size(); ++k) ps.push_back(many->at(k).as_string());
    auto t0 = Clock::now();
    if (!kernel_cache.get(std::to_string(g))) kernel_cache.put(std::to_string(g), 0);
    cp.cache_s += secs_since(t0);
    std::vector<std::string> missed_keys;
    // Per placement the service parses and validates it, prints it twice
    // (cache key, response) and looks the key up.
    for (const auto& str : ps) {
      t0 = Clock::now();
      auto pl = DataPlacement::from_string(prof[g]->bench.kernel, str);
      const bool legal =
          pl && gpuhms::validate(prof[g]->bench.kernel, *pl, *prof[g]->arch).ok();
      std::string printed[2];
      if (legal)
        for (auto& p : printed) p = pl->to_string();
      cp.placement_s += secs_since(t0);
      if (!legal) continue;
      t0 = Clock::now();
      const std::string key = prefix[g] + printed[0];
      const bool hit = pred_cache.get(key).has_value();
      cp.cache_s += secs_since(t0);
      if (!hit) {
        missed_keys.push_back(key);
        cp.missed.push_back(std::move(*pl));
      }
    }
    t0 = Clock::now();
    for (const auto& key : missed_keys) pred_cache.put(key, gpuhms::Prediction{});
    cp.cache_s += secs_since(t0);
    return cp;
  };
  auto replay = [&](const std::string& line) -> std::pair<CachePath, std::size_t> {
    const auto req = Json::parse(line);
    if (!req.ok() || req->find("benchmark") == nullptr) return {CachePath{}, groups.size()};
    const std::size_t g = group_of(*req);
    if (g == groups.size() || req->find("op")->as_string() == "search")
      return {CachePath{}, g};
    return {cache_path(*req, g), g};
  };
  for (const auto& r : warm) replay(request_line(0, r.body));

  // The first n requests of the stream, one in flight, in five passes: an
  // untimed warm-up, then plain, traced, traced, plain. A plain pass is
  // timed as a whole; a traced pass per request, and its requests' sum is
  // the traced wall. Every pass carries the same requests, and the
  // plain/traced order is balanced against drift.
  enum class Pass { kWarm, kPlain, kTraced };
  const Pass kPasses[] = {Pass::kWarm, Pass::kPlain, Pass::kTraced, Pass::kTraced,
                          Pass::kPlain};
  const std::size_t n = t.traced_requests;
  const std::size_t total = n * std::size(kPasses);
  auto traced_line = [&](std::size_t i) { return kPasses[i / n] == Pass::kTraced; };
  std::vector<std::string> lines, got(total);
  for (std::size_t i = 0; i < total; ++i) lines.push_back(request_line(i, stream[i % n].body));
  std::vector<double> rtt(total, 0.0);
  double plain_wall = 0, traced_wall = 0;
  {
    Conn c(dep.daemon->socket_path());
    for (std::size_t p0 = 0; p0 < total; p0 += n) {
      const auto t0 = Clock::now();
      for (std::size_t i = p0; i < p0 + n; ++i) {
        const auto r0 = Clock::now();
        if (!c.roundtrip(lines[i], got[i])) got[i].clear();
        if (traced_line(i)) rtt[i] = secs_since(r0);
      }
      if (kPasses[p0 / n] == Pass::kPlain) plain_wall += secs_since(t0);
    }
  }

  // The same lines through the replica, in order. Each traced line is
  // timed as a whole (handle), then each layer it passes through is timed
  // on its own.
  double s_handle = 0, s_json = 0, s_cache = 0, s_placement = 0, s_lower = 0,
         s_walk = 0, s_other = 0, s_search = 0;
  std::size_t model_misses = 0;
  std::uint64_t replica_misses = 0;
  std::vector<double> handle_us, transport_us, parse_us, dump_us, rtt_us;
  std::vector<gpuhms::TraceAnalyzer> analyzers;
  for (const auto& p : prof) analyzers.push_back(p->pred->make_analyzer());
  for (std::size_t i = 0; i < total; ++i) {
    const std::span<const std::string> one(&lines[i], 1);
    const std::uint64_t misses0 = replica.stats().prediction_cache.misses;
    auto h0 = Clock::now();
    const std::vector<std::string> out = replica.handle_pipeline(one);
    const double handle = secs_since(h0);
    if (traced_line(i)) replica_misses += replica.stats().prediction_cache.misses - misses0;
    const bool ok = stream[i % n].deterministic
                        ? out.size() == 1 && out[0] == got[i]
                        : response_id(got[i]) == static_cast<long long>(i);
    report.op(ok);
    if (!ok) report.fail("sequential response differs: " + got[i].substr(0, 120));
    if (!traced_line(i)) {
      replay(lines[i]);
      continue;
    }

    h0 = Clock::now();
    keep(Json::parse(lines[i]).ok());
    const double parse = secs_since(h0);
    const auto resp = Json::parse(out.empty() ? std::string("{}") : out[0]);
    h0 = Clock::now();
    keep(resp.ok() ? static_cast<double>(resp->dump().size()) : 0.0);
    const double dump = secs_since(h0);
    // Response assembly, as the service does it for every response: its
    // handler builds the body with Json::object and one Json::set per
    // member, then the pipeline copies the body member by member behind
    // the id and op. The same calls on this response's members.
    h0 = Clock::now();
    if (resp.ok() && resp->is_object()) {
      Json body = Json::object();
      for (const auto& [key, value] : resp->members())
        if (key != "id" && key != "op") body.set(key, value);
      Json assembled = Json::object();
      for (const char* key : {"id", "op"})
        if (const Json* v = resp->find(key)) assembled.set(key, *v);
      for (const auto& [key, value] : body.members()) assembled.set(key, value);
      keep(static_cast<double>(assembled.members().size()));
    }
    const double assemble = secs_since(h0);

    traced_wall += rtt[i];
    handle_us.push_back(handle * 1e6);
    rtt_us.push_back(rtt[i] * 1e6);
    transport_us.push_back((rtt[i] - handle) * 1e6);
    parse_us.push_back(parse * 1e6);
    dump_us.push_back(dump * 1e6);
    s_handle += handle;
    s_json += parse + dump + assemble;

    const auto [cp, g] = replay(lines[i]);
    s_cache += cp.cache_s;
    s_placement += cp.placement_s;
    if (g < groups.size() && stream[i % n].body.find("\"op\":\"search\"") == 0) {
      gpuhms::SearchOptions so;
      so.pool = &pool;
      h0 = Clock::now();
      keep(gpuhms::try_search(*prof[g]->pred, gpuhms::SearchAlgo::kBnb, so).ok());
      s_search += secs_since(h0);
    }
    for (const DataPlacement& pl : cp.missed) {
      const LayerTimes lt = time_layers(*prof[g], pl, analyzers[g], &pool);
      s_lower += lt.lower_s;
      s_walk += lt.analyze_s - lt.lower_s;
      s_other += lt.batch_s - lt.analyze_s;
      ++model_misses;
    }
  }

  // The open loop: cache behaviour, generator lag and the open-loop
  // latency figures.
  Counters before, after;
  Conn side(dep.daemon->socket_path());
  const bool counted = read_counters(side, before);
  const OpenLoop ol = open_loop(cfg, t, dep.daemon->socket_path(), ref, stream,
                                n, 1u << 30, report);
  const PhaseResult& ph = ol.nominal;
  if (!counted || !read_counters(side, after)) report.fail("metrics verb did not answer");
  dep.daemon->stop();
  lv.set("open_loop.p50_ms", windowed(ph, ph.latency_ms, 0.5, t.window_s));
  lv.set("open_loop.p99_ms", windowed(ph, ph.latency_ms, 0.99, t.window_s));
  lv.set("open_loop.max_rate_rps", ol.max_rate);

  const double d_hits = after.pred_hits - before.pred_hits;
  const double d_miss = after.pred_misses - before.pred_misses;
  const double d_khits = after.kernel_hits - before.kernel_hits;
  const double d_kmiss = after.kernel_misses - before.kernel_misses;
  const double d_req = std::max(1.0, after.requests - before.requests);
  if (d_kmiss != 0) report.fail("kernel cache missed after warm-up");
  lv.set("serve.rtt_us", median(rtt_us));
  lv.set("serve.service_handle_us", median(handle_us));
  lv.set("serve.transport_self_us", median(transport_us));
  lv.set("serve.json_parse_us", median(parse_us));
  lv.set("serve.json_dump_us", median(dump_us));
  lv.set("serve.pred_cache_hit_ratio", d_hits / std::max(1.0, d_hits + d_miss));
  lv.set("serve.pred_cache_evictions_per_req",
         (after.evictions - before.evictions) / d_req);
  lv.set("serve.kernel_cache_hit_ratio", d_khits / std::max(1.0, d_khits + d_kmiss));
  lv.set("serve.predicts_per_batch_call",
         after.batch_calls > before.batch_calls
             ? (after.batched - before.batched) / (after.batch_calls - before.batch_calls)
             : 0.0);
  lv.set("gen.lag_ms", windowed(ph, ph.lag_ms, 0.99, t.window_s));

  // Per-candidate model costs over a seeded sample of keys, two per group.
  Rng rng(cfg.seed ^ 0x1a7e5);
  std::vector<double> predict_ms, lower_ms, walk_ms, eq_us;
  std::size_t saturated = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (int k = 0; k < 2; ++k) {
      const auto pl = DataPlacement::from_string(
          prof[g]->bench.kernel,
          groups[g].placements[rng.below(groups[g].placements.size())]);
      const LayerTimes lt = time_layers(*prof[g], *pl, analyzers[g], nullptr);
      predict_ms.push_back(lt.predict_s * 1e3);
      lower_ms.push_back(lt.lower_s * 1e3);
      walk_ms.push_back((lt.analyze_s - lt.lower_s) * 1e3);
      eq_us.push_back(lt.equations_s * 1e6);
      saturated += lt.queue_saturated;
    }
  }
  lv.set("sim.profile_ms", 1e3 * profile_s / groups.size());
  lv.set("sim.mcycles_per_s", sample_cycles / profile_s / 1e6);
  lv.set("trace.skeleton_ms", 1e3 * skeleton_s / groups.size());
  lv.set("model.train_overlap_s", train_s);
  lv.set("model.predict_ms", median(predict_ms));
  lv.set("trace.lower_ms", median(lower_ms));
  lv.set("model.walk_ms", median(walk_ms));
  lv.set("model.equations_us", median(eq_us));
  lv.set("model.queue_saturated_ratio",
         static_cast<double>(saturated) / predict_ms.size());

  // The ledger over the traced pass: transport is rtt minus in-process
  // handle time; inside the handle, JSON, model and search calls are timed
  // separately, and what they leave of the wall is unattributed. Transport
  // is a difference, so the unattributed share can never exceed the
  // handle's share of the wall.
  const double transport = traced_wall - s_handle;
  const double attributed = transport + s_json + s_cache + s_placement + s_lower +
                            s_walk + s_other + s_search;
  const double pct = 100.0 / traced_wall;
  lv.set("ledger.unattributed_pct", (traced_wall - attributed) * pct);
  lv.set("ledger.tracing_overhead_pct", (traced_wall - plain_wall) / plain_wall * 100.0);
  lv.set("ledger.transport_pct", transport * pct);
  lv.set("ledger.json_pct", s_json * pct);
  lv.set("ledger.cache_pct", s_cache * pct);
  lv.set("ledger.placement_pct", s_placement * pct);
  lv.set("ledger.lower_pct", s_lower * pct);
  lv.set("ledger.walk_pct", s_walk * pct);
  lv.set("ledger.predict_other_pct", s_other * pct);
  lv.set("ledger.search_call_pct", s_search * pct);
  if ((traced_wall - attributed) * pct > 10.0)
    report.fail(fmt("ledger leaves %.1f%% of the traced wall unattributed",
                    (traced_wall - attributed) * pct));
  report.note(fmt("ledger: %zu requests, two passes plain and two traced; traced wall "
                  "%.3f s, plain wall %.3f s; prediction-cache misses %zu replayed, "
                  "%llu in the replica",
                  n, traced_wall, plain_wall, model_misses,
                  static_cast<unsigned long long>(replica_misses)));
  lv.emit(report);
}

}  // namespace

void run_serve(const Config& cfg, Report& report) {
  const Traffic t = traffic_for(cfg.workload);
  const auto groups = key_space(t);
  std::size_t keys = 0;
  for (const auto& g : groups) keys += g.placements.size();
  report.stamp("keys", std::to_string(keys));
  std::string flags;
  for (const auto& f : daemon_flags(t)) flags += (flags.empty() ? "" : " ") + f;
  report.stamp("daemon_flags", flags);
  if (cfg.trace)
    traced_run(cfg, t, report);
  else
    plain_run(cfg, t, report);
}

}  // namespace perfbench
