// serve: an in-process util::serving::Server driven over loopback HTTP by a
// closed loop of clients, each waiting for its reply before it sends again.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <thread>

#include "adarnet/pipeline.hpp"
#include "checks.hpp"
#include "data/cases.hpp"
#include "util/metrics.hpp"
#include "util/serving.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace adarnet;
namespace serving = util::serving;

constexpr int kClients = 4;
// One worker: concurrent workers run inference through the one process-wide
// GEMM arena, which has no lock, and a second worker makes responses
// unrepeatable (README.md).
constexpr int kWorkers = 1;
constexpr int kQueueCapacity = 8;   // deeper than the client count
constexpr int kMaxOuter = 4;        // fixed per-request iteration budget
constexpr int kMinRequests = 100;   // so >= 10 requests lie beyond p90
constexpr int kRePerFamily = 2;

struct Family {
  const char* name;
  std::array<double, kRePerFamily> re;
};
// The five case families of the service, each at two Re: the paper's test
// Re and one more from the family's band.
constexpr std::array<Family, 5> kFamilies = {{
    {"channel", {2.5e3, 1.5e4}},
    {"flat_plate", {2.5e5, 1.35e6}},
    {"cylinder", {5e4, 1e5}},
    {"naca0012", {1e4, 2.5e4}},
    {"naca1412", {1e4, 2.5e4}},
}};

struct Scenario {
  int family = 0;
  double re = 0.0;
};

// The ten scenarios of the mix, in a fixed order.
std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  for (std::size_t f = 0; f < kFamilies.size(); ++f) {
    for (double re : kFamilies[f].re) out.push_back({static_cast<int>(f), re});
  }
  return out;
}

mesh::CaseSpec spec_for(const Scenario& s) {
  const double re = s.re;
  const std::string name = kFamilies[static_cast<std::size_t>(s.family)].name;
  if (name == "channel") return data::channel_case(re, wall_preset());
  if (name == "flat_plate") return data::flat_plate_case(re, wall_preset());
  if (name == "cylinder") return data::cylinder_case(re, body_preset());
  if (name == "naca0012") return data::naca0012_case(re, body_preset());
  return data::naca1412_case(re, body_preset());
}

std::string request_body(const Scenario& s) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "{\"case\": \"%s\", \"re\": %.17g, "
                "\"max_outer\": %d}",
                kFamilies[static_cast<std::size_t>(s.family)].name, s.re,
                kMaxOuter);
  return buf;
}

struct Reply {
  int status = 0;
  std::string body;
};

// One HTTP/1.1 POST /solve over a fresh loopback connection.
Reply post_solve(int port, const std::string& json) {
  Reply out;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return out;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) ==
      0) {
    const std::string req =
        "POST /solve HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        "Content-Type: application/json\r\nContent-Length: " +
        std::to_string(json.size()) + "\r\nConnection: close\r\n\r\n" + json;
    std::size_t sent = 0;
    while (sent < req.size()) {
      const ssize_t w =
          ::send(fd, req.data() + sent, req.size() - sent, MSG_NOSIGNAL);
      if (w <= 0) break;
      sent += static_cast<std::size_t>(w);
    }
    std::string raw;
    char buf[4096];
    while (true) {
      const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
      if (got <= 0) break;
      raw.append(buf, static_cast<std::size_t>(got));
    }
    if (raw.rfind("HTTP/1.", 0) == 0 && raw.size() > 12) {
      out.status = std::atoi(raw.c_str() + 9);
    }
    const std::size_t body_at = raw.find("\r\n\r\n");
    if (body_at != std::string::npos) out.body = raw.substr(body_at + 4);
  }
  ::close(fd);
  return out;
}

double json_double(const std::string& body, const char* key) {
  const std::string pat = std::string("\"") + key + "\": ";
  const std::size_t at = body.find(pat);
  return at == std::string::npos ? NAN
                                 : std::atof(body.c_str() + at + pat.size());
}

struct Sample {
  Scenario scenario;
  std::uint64_t id = 0;
  double wall_s = 0.0;
  Reply reply;
};

serving::ServingConfig server_config() {
  serving::ServingConfig cfg;
  cfg.workers = kWorkers;
  cfg.queue_capacity = kQueueCapacity;
  cfg.io_timeout_ms = 10000;
  // No deadline: the default is the maximum, so the EMA-driven capping and
  // caching of the service ladder never engage and every request does the
  // same work.
  cfg.default_deadline_s = 300.0;
  cfg.max_deadline_s = 300.0;
  cfg.wall_preset = wall_preset();
  cfg.body_preset = body_preset();
  cfg.solver = solver_config(kMaxOuter);
  cfg.seed = kModelSeed;
  return cfg;
}

// The closed loop: each client walks the ten scenarios round and round in
// their fixed order, until `seconds` are up and the service has answered at
// least `min_requests`. Client c starts at scenario (seed + c * 10 / 4) mod
// 10, so the clients stay spread over the list and the seed rotates where
// all of them start. With an order shuffled per client and round, the mix
// of requests in the queue together differed from seed to seed, and with
// it p50: ten seeds read 630 to 843 ms (29% IQR), where three runs of one
// seed read 697 to 730 ms.
//
// Meanwhile the calling thread moves the serving worker (thread `worker`)
// to the next vCPU every second (harness.hpp, CpuRotation).
std::vector<Sample> closed_loop(int port, const Options& opt, double seconds,
                                int min_requests, int worker) {
  std::vector<std::vector<Sample>> per_client(kClients);
  std::atomic<int> done{0};
  std::atomic<std::uint64_t> next_id{1};
  const Clock::time_point t0 = Clock::now();
  const auto client = [&](int c) {
    const std::vector<Scenario> order = scenarios();
    const std::size_t n = order.size();
    std::size_t next = static_cast<std::size_t>(
        (opt.seed + static_cast<std::uint64_t>(c * n / kClients)) % n);
    while (true) {
      const Scenario& scenario = order[next];
      next = (next + 1) % n;
      const double elapsed = since(t0);
      // A service that stops answering 200 still ends the run (at 3x
      // the loop length), with its failures counted.
      if (elapsed >= seconds &&
          (done.load() >= min_requests || elapsed >= 3.0 * seconds)) {
        return;
      }
      Sample s;
      s.scenario = scenario;
      s.id = next_id.fetch_add(1);
      const Clock::time_point t = Clock::now();
      {
        const Span span("serve.request", s.id);
        s.reply = post_solve(port, request_body(s.scenario));
      }
      s.wall_s = since(t);
      if (s.reply.status == 200) done.fetch_add(1);
      per_client[static_cast<std::size_t>(c)].push_back(std::move(s));
    }
  };
  std::atomic<int> running{kClients};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      client(c);
      running.fetch_sub(1);
    });
  }
  const CpuRotation cpus;
  std::size_t vcpu = 0;
  Clock::time_point moved = Clock::now();
  if (worker > 0) cpus.pin(vcpu, worker);
  while (running.load() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    if (worker > 0 && since(moved) >= 1.0) {
      cpus.pin(++vcpu, worker);
      moved = Clock::now();
    }
  }
  for (std::thread& t : clients) t.join();
  std::vector<Sample> all;
  for (auto& v : per_client) {
    for (Sample& s : v) all.push_back(std::move(s));
  }
  return all;
}

// The direct library call the service must agree with: the same LR solve,
// per-request normalisation fit and pipeline, on a model replica built
// from the same seed.
checks::SolveSummary direct_summary(const Scenario& s) {
  const serving::ServingConfig cfg = server_config();
  const mesh::CaseSpec spec = spec_for(s);
  std::unique_ptr<core::AdarNet> model = fresh_model();
  core::PipelineConfig pcfg;
  pcfg.lr_solver = cfg.solver;
  pcfg.ps_solver = cfg.solver;
  pcfg.guards = cfg.guards;
  solver::SolveStats lr_stats;
  const field::FlowField lr = data::solve_lr(spec, pcfg.lr_solver, &lr_stats);
  model->stats() = data::NormStats::fit({lr});
  const core::PipelineResult p = core::run_adarnet_pipeline(
      *model, spec, pcfg, lr, 0.0, lr_stats.iterations);
  double umax = 0.0;
  for (std::size_t k = 0; k < p.solution.U.size(); ++k) {
    const auto& u = p.solution.U[k];
    const auto& v = p.solution.V[k];
    for (std::size_t i = 0; i < u.size(); ++i) {
      const double speed = std::sqrt(u[i] * u[i] + v[i] * v[i]);
      if (std::isfinite(speed)) umax = std::max(umax, speed);
    }
  }
  checks::SolveSummary out;
  out.status = 200;
  out.stage = "full";
  out.iterations = p.ps_iterations;
  out.residual = checks::render(p.residual);
  out.umax = checks::render(umax);
  return out;
}

}  // namespace

void run_serve(const Options& opt, Report& r) {
  serving::Server server(server_config());
  if (!server.start()) throw std::runtime_error("serving: cannot start");
  const int port = server.bound_port();
  // Warm-up: one request per scenario, outside the timing.
  for (const Scenario& s : scenarios()) post_solve(port, request_body(s));
  const double setup_s = setup_seconds(opt);
  // The worker ran every warm-up solve, so it is the busiest thread.
  const int worker = busiest_thread();
  std::fprintf(stderr, "[serve] worker thread %d\n", worker);

  util::metrics::reset();
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  // The traced run splits the time between an untraced loop, the reference
  // for the tracing overhead, and a traced one.
  const double loop_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const int loop_min = opt.trace ? kMinRequests / 2 : kMinRequests;
  // The host's speed is sampled while the server is idle, before and after
  // the loops: sampled alongside the worker, the kernel timed the two
  // contending for a core (41 ms against 20 ms alone).
  HostSpeed speed;
  speed.sample(5);
  std::vector<Sample> samples =
      closed_loop(port, opt, loop_s, loop_min, worker);
  std::vector<Sample> untraced;
  Clock::time_point traced_from = t0;
  if (opt.trace) {
    untraced = std::move(samples);
    Tracer::get().set_enabled(true);
    traced_from = Clock::now();
    samples = closed_loop(port, opt, loop_s, loop_min, worker);
  }
  const Clock::time_point t1 = Clock::now();
  const double loop_wall = std::chrono::duration<double>(t1 - t0).count();
  const double loop_cpu = cpu_seconds() - cpu0;
  server.stop();
  speed.sample(5);
  if (opt.trace) {
    // The registry's counters, read before the checks below add direct
    // library calls of their own.
    const double n = static_cast<double>(untraced.size() + samples.size());
    r.metric("cpu.utilization",
             loop_cpu / loop_wall / static_cast<double>(kWorkers * opt.threads),
             "ratio");
    report_gemm(r);
    report_solver(r, n);
    r.metric("adarnet.infer_s",
             1e-9 * static_cast<double>(counter("infer.ns")) / n, "s");
  }

  // Check every response against the direct call for its scenario.
  std::map<std::pair<int, double>, checks::SolveSummary> refs;
  std::vector<double> lat_ms, queue_ms, solve_ms, overhead_ms;
  RoundTimes times;
  long long good = 0;
  long long degraded = 0;
  for (std::vector<Sample>* set : {&untraced, &samples}) {
    for (const Sample& s : *set) {
      const auto key = std::make_pair(s.scenario.family, s.scenario.re);
      auto it = refs.find(key);
      if (it == refs.end()) {
        const Span span("serve.direct_call");
        it = refs.emplace(key, direct_summary(s.scenario)).first;
      }
      const checks::SolveSummary got =
          checks::parse_response(s.reply.status, s.reply.body);
      std::string why = checks::response_matches(got, it->second);
      if (why.empty()) {
        why = checks::umax_plausible(json_double(s.reply.body, "umax"),
                                     spec_for(s.scenario).u_ref);
      }
      if (!why.empty()) {
        std::fprintf(stderr, "[serve] request %llu (%s Re %g): %s\n",
                     static_cast<unsigned long long>(s.id),
                     kFamilies[static_cast<std::size_t>(s.scenario.family)].name,
                     s.scenario.re, why.c_str());
      }
      r.attempt(why.empty());
      if (got.status == 200 && got.stage != "full") ++degraded;
      if (got.status != 200) continue;
      if (why.empty()) ++good;
      // round_s takes a request's time in the system less its wait in the
      // server's queue: which requests a client finds ahead of it drifts
      // with the seed and the host, and over five runs the fastest client
      // walls summed spread 11.8% (IQR/median) where these spread 4.8%.
      // The queue wait is reported as serving.queue_ms.
      if (set == &samples) {
        char kind[64];
        std::snprintf(kind, sizeof(kind), "%s %g",
                      kFamilies[static_cast<std::size_t>(s.scenario.family)]
                          .name,
                      s.scenario.re);
        times.add(kind, s.wall_s - json_double(s.reply.body, "queue_s"));
      }
      const double q = json_double(s.reply.body, "queue_s");
      const double sv = json_double(s.reply.body, "solve_s");
      lat_ms.push_back(1e3 * s.wall_s);
      queue_ms.push_back(1e3 * q);
      solve_ms.push_back(1e3 * sv);
      overhead_ms.push_back(1e3 * (s.wall_s - q - sv));
    }
  }
  if (lat_ms.size() < static_cast<std::size_t>(kMinRequests)) {
    // Fewer answers than the p90 needs: the loop hit its hard stop.
    r.fail_run("only " + std::to_string(lat_ms.size()) +
               " requests completed");
  }
  std::fprintf(stderr,
               "[serve] %zu + %zu requests in %.2fs, %lld good (%.2f/s), "
               "p50 %.1f ms, p90 %.1f ms; fastest per scenario without "
               "queueing, summed, %.3f s (>= %zu samples each)\n",
               untraced.size(), samples.size(), loop_wall, good,
               static_cast<double>(good) / loop_wall, quantile(lat_ms, 0.5),
               quantile(lat_ms, 0.9), times.round_s(), times.min_samples());

  std::fprintf(stderr, "[serve] host kernel %.2f ms\n",
               1e3 * speed.kernel_s());
  if (!opt.trace) {
    r.metric("setup_s", setup_s, "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    r.metric("round_s", times.round_s(), "s");
    return;
  }
  r.metric("host.kernel_ms", 1e3 * speed.kernel_s(), "ms");
  r.metric("serving.queue_ms", median(queue_ms), "ms");
  r.metric("serving.solve_ms", median(solve_ms), "ms");
  r.metric("serving.overhead_ms", median(overhead_ms), "ms");
  r.metric("serving.degraded", static_cast<double>(degraded), "count");
  std::vector<double> before;
  for (const Sample& s : untraced) before.push_back(s.wall_s);
  std::vector<double> after;
  for (const Sample& s : samples) after.push_back(s.wall_s);
  r.metric("trace.overhead_pct", 100.0 * (median(after) / median(before) - 1.0),
           "%");
  r.metric("trace.outside_s", Tracer::get().summarize(traced_from, t1), "s");
  // Mesh build cost of the request mix: the composite mesh of each
  // scenario's predicted map, built the way the service builds it.
  std::vector<double> build_ms;
  for (const Scenario& s : scenarios()) {
    const mesh::CaseSpec spec = spec_for(s);
    std::unique_ptr<core::AdarNet> model = fresh_model();
    const field::FlowField lr = data::solve_lr(spec, solver_config(kMaxOuter));
    model->stats() = data::NormStats::fit({lr});
    const core::InferenceResult inf = model->infer(lr);
    const Clock::time_point t = Clock::now();
    {
      const Span span("mesh.to_composite");
      model->to_composite(inf, spec, lr);
    }
    build_ms.push_back(1e3 * since(t));
  }
  r.metric("mesh.build_ms", median(build_ms), "ms");
  Tracer::get().write(opt.out_dir + "/trace_serve.json");
}

}  // namespace perfbench
