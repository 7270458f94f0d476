// Tests for the embedded introspection HTTP server: endpoint routing,
// Prometheus exposition validity, journal tailing, and scraping while a
// simulation is actively running on another thread.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>

#include "netbase/rng.hpp"
#include "obs/causal.hpp"
#include "obs/export.hpp"
#include "obs/http.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "simnet/simulation.hpp"

namespace zombiescope::obs {
namespace {

struct Response {
  int status = 0;
  std::string head;
  std::string body;
};

/// Minimal blocking HTTP/1.0-style client: one request, read to EOF
/// (the server always sends Connection: close).
Response http_get(std::uint16_t port, const std::string& target,
                  const std::string& method = "GET") {
  Response res;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return res;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return res;
  }
  const std::string request =
      method + " " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string raw;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) raw.append(buf, static_cast<std::size_t>(n));
  ::close(fd);
  const auto split = raw.find("\r\n\r\n");
  if (split == std::string::npos) return res;
  res.head = raw.substr(0, split);
  res.body = raw.substr(split + 4);
  if (res.head.rfind("HTTP/1.1 ", 0) == 0)
    res.status = std::atoi(res.head.c_str() + std::strlen("HTTP/1.1 "));
  return res;
}

class ObsHttp : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(server_.start(0));  // ephemeral port
    ASSERT_TRUE(server_.running());
    ASSERT_NE(server_.port(), 0);
  }
  void TearDown() override { server_.stop(); }

  HttpServer server_;
};

TEST_F(ObsHttp, MetricsEndpointServesValidPrometheus) {
  Registry::global().counter("zs_http_test_probe_total").inc(3);
  Registry::global().histogram("zs_http_test_seconds", duration_buckets()).observe(0.5);
  const Response res = http_get(server_.port(), "/metrics");
  EXPECT_EQ(res.status, 200);
  EXPECT_NE(res.head.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(res.body.find("zs_http_test_probe_total 3"), std::string::npos);
  EXPECT_NE(res.body.find("zs_http_test_seconds_quantile{q=\"0.95\"}"), std::string::npos);
  EXPECT_TRUE(prometheus_format_ok(res.body)) << res.body;
}

TEST_F(ObsHttp, HealthzReportsOk) {
  const Response res = http_get(server_.port(), "/healthz");
  EXPECT_EQ(res.status, 200);
  EXPECT_NE(res.head.find("application/json"), std::string::npos);
  EXPECT_NE(res.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(res.body.find("\"journal_emitted\""), std::string::npos);
}

TEST_F(ObsHttp, SpansEndpointServesJson) {
  { ScopedSpan span("http_test.span"); }
  const Response res = http_get(server_.port(), "/spans");
  EXPECT_EQ(res.status, 200);
  EXPECT_NE(res.body.find("\"spans\""), std::string::npos);
}

TEST_F(ObsHttp, JournalTailServesRecentEvents) {
  Journal& journal = Journal::global();
  const std::uint32_t saved = journal.enabled_categories();
  journal.set_enabled_categories(kCatAll);
  JournalEvent ev;
  ev.type = JournalEventType::kSimSessionDown;
  ev.time = 1234;
  ev.a = 11;
  ev.b = 12;
  journal.emit(kCatFault, ev);
  const Response res = http_get(server_.port(), "/journal/tail?n=8");
  journal.set_enabled_categories(saved);
  EXPECT_EQ(res.status, 200);
  EXPECT_NE(res.body.find("\"ev\":\"sim_session_down\""), std::string::npos);
  // Every line must parse back as a journal event.
  std::size_t start = 0;
  while (start < res.body.size()) {
    auto end = res.body.find('\n', start);
    if (end == std::string::npos) end = res.body.size();
    const std::string line = res.body.substr(start, end - start);
    if (!line.empty()) {
      EXPECT_TRUE(parse_ndjson(line).has_value()) << line;
    }
    start = end + 1;
  }
}

TEST_F(ObsHttp, JournalTailCategoryFilter) {
  Journal& journal = Journal::global();
  journal.reset();
  const std::uint32_t saved = journal.enabled_categories();
  journal.set_enabled_categories(kCatAll);
  JournalEvent fault;
  fault.type = JournalEventType::kFaultReceiveStall;
  fault.a = 65001;
  journal.emit(kCatFault, fault);
  JournalEvent detect;
  detect.type = JournalEventType::kZombieDeclared;
  journal.emit(kCatDetector, detect);

  const Response faults = http_get(server_.port(), "/journal/tail?category=fault");
  EXPECT_EQ(faults.status, 200);
  EXPECT_NE(faults.body.find("fault_receive_stall"), std::string::npos);
  EXPECT_EQ(faults.body.find("zombie_declared"), std::string::npos);

  // Comma lists compose; unknown names are a client error, not an
  // empty 200 (a typo must not read as "no events").
  const Response both =
      http_get(server_.port(), "/journal/tail?category=fault,detector");
  EXPECT_NE(both.body.find("fault_receive_stall"), std::string::npos);
  EXPECT_NE(both.body.find("zombie_declared"), std::string::npos);
  EXPECT_EQ(http_get(server_.port(), "/journal/tail?category=bogus").status, 400);

  journal.set_enabled_categories(saved);
  journal.reset();
}

TEST_F(ObsHttp, CausalEndpointServesPropagationTree) {
  CausalTracer& tracer = CausalTracer::global();
  tracer.reset();
  HopRecord root;
  root.trace_id = 21;
  root.prefix = netbase::Prefix::parse("203.0.113.0/24");
  root.from_asn = 0;
  root.to_asn = 65000;
  root.time = 1000;
  root.hop = 0;
  root.kind = TraceKind::kWithdrawal;
  root.decision = HopDecision::kOriginated;
  tracer.record(root);
  HopRecord dead = root;
  dead.from_asn = 65000;
  dead.to_asn = 65001;
  dead.hop = 1;
  dead.decision = HopDecision::kSuppressedByFault;
  tracer.record(dead);

  // Index view lists the traced prefix.
  const Response index = http_get(server_.port(), "/causal");
  EXPECT_EQ(index.status, 200);
  EXPECT_NE(index.body.find("203.0.113.0/24"), std::string::npos);

  // Percent-encoded prefix query renders the tree.
  const Response tree =
      http_get(server_.port(), "/causal?prefix=203.0.113.0%2F24");
  EXPECT_EQ(tree.status, 200);
  EXPECT_NE(tree.body.find("trace 21"), std::string::npos);
  EXPECT_NE(tree.body.find("rooted at AS65000"), std::string::npos);
  EXPECT_NE(tree.body.find("suppressed_by_fault"), std::string::npos);

  EXPECT_EQ(http_get(server_.port(), "/causal?prefix=nonsense").status, 400);
  tracer.reset();
}

TEST_F(ObsHttp, UnknownPathIs404AndPostIs405) {
  EXPECT_EQ(http_get(server_.port(), "/nope").status, 404);
  EXPECT_EQ(http_get(server_.port(), "/metrics", "POST").status, 405);
  EXPECT_EQ(http_get(server_.port(), "/nope", "PUT").status, 405);
  EXPECT_EQ(http_get(server_.port(), "/metrics", "DELETE").status, 405);
}

TEST_F(ObsHttp, IndexListsBuiltinEndpoints) {
  const Response res = http_get(server_.port(), "/");
  EXPECT_EQ(res.status, 200);
  EXPECT_NE(res.head.find("application/json"), std::string::npos);
  for (const char* path : {"\"path\":\"/metrics\"", "\"path\":\"/healthz\"",
                           "\"path\":\"/spans\"", "\"path\":\"/journal/tail\""}) {
    EXPECT_NE(res.body.find(path), std::string::npos) << path << " missing in " << res.body;
  }
  EXPECT_NE(res.body.find("\"stream\":false"), std::string::npos);
}

TEST_F(ObsHttp, HeadIsGetWithoutBody) {
  const Response get = http_get(server_.port(), "/healthz");
  const Response head = http_get(server_.port(), "/healthz", "HEAD");
  EXPECT_EQ(head.status, 200);
  EXPECT_TRUE(head.body.empty()) << head.body;
  // The headers still advertise the GET body's length.
  const std::string want =
      "Content-Length: " + std::to_string(get.body.size());
  EXPECT_NE(head.head.find(want), std::string::npos) << head.head;
}

TEST(ObsHttpIndex, RegisteredEndpointsAppearWithStreamFlag) {
  HttpServer server;
  SseChannel channel;
  server.add_endpoint("/custom", [](std::string_view) {
    return HttpResponse{200, "text/plain", "hi", ""};
  });
  server.add_stream("/events", &channel);
  ASSERT_TRUE(server.start(0));
  const Response res = http_get(server.port(), "/");
  EXPECT_EQ(res.status, 200);
  EXPECT_NE(res.body.find("{\"path\":\"/custom\",\"stream\":false}"),
            std::string::npos)
      << res.body;
  EXPECT_NE(res.body.find("{\"path\":\"/events\",\"stream\":true}"),
            std::string::npos)
      << res.body;
  server.stop();
}

TEST_F(ObsHttp, CountsRequestsServed) {
  const std::uint64_t before = server_.requests_served();
  http_get(server_.port(), "/healthz");
  http_get(server_.port(), "/healthz");
  EXPECT_EQ(server_.requests_served(), before + 2);
}

TEST(ObsHttpLifecycle, StopIsIdempotentAndPortRebindable) {
  HttpServer a;
  ASSERT_TRUE(a.start(0));
  const std::uint16_t port = a.port();
  a.stop();
  a.stop();
  EXPECT_FALSE(a.running());
  HttpServer b;
  EXPECT_TRUE(b.start(port));  // freed by SO_REUSEADDR + close
  b.stop();
}

// The acceptance-criterion test: scraping /metrics while a simulation
// is actively journaling and bumping counters on another thread must
// return valid Prometheus text.
TEST(ObsHttpLive, ScrapeDuringActiveSim) {
  using netbase::kHour;
  using netbase::kMinute;
  using netbase::Prefix;
  using netbase::Rng;
  using netbase::utc;
  using topology::Relationship;
  using topology::Topology;

  Topology topo;
  topo.add_as({1, 1, "T1a"});
  topo.add_as({2, 1, "T1b"});
  topo.add_as({11, 2, "M1"});
  topo.add_as({12, 2, "M2"});
  topo.add_as({13, 2, "M3"});
  topo.add_as({100, 3, "origin"});
  topo.add_link(1, 2, Relationship::kPeer);
  topo.add_link(1, 11, Relationship::kCustomer);
  topo.add_link(1, 12, Relationship::kCustomer);
  topo.add_link(2, 13, Relationship::kCustomer);
  topo.add_link(11, 100, Relationship::kCustomer);
  topo.add_link(12, 100, Relationship::kCustomer);
  topo.add_link(13, 100, Relationship::kCustomer);

  Journal& journal = Journal::global();
  const std::uint32_t saved = journal.enabled_categories();
  journal.set_enabled_categories(kCatAll);

  HttpServer server;
  ASSERT_TRUE(server.start(0));

  const Prefix beacon = Prefix::parse("2a0d:3dc1:1145::/48");
  std::atomic<bool> stop{false};
  std::thread driver([&] {
    simnet::SimConfig config;
    config.min_link_delay = 2;
    config.max_link_delay = 10;
    simnet::Simulation sim(topo, config, Rng(7));
    auto t = utc(2024, 6, 4, 12, 0, 0);
    while (!stop.load(std::memory_order_acquire)) {
      sim.announce(t, 100, beacon);
      sim.withdraw(t + 15 * kMinute, 100, beacon);
      sim.run_until(t + kHour);
      t += 2 * kHour;
    }
  });

  bool sane = true;
  for (int i = 0; i < 5; ++i) {
    const Response res = http_get(server.port(), "/metrics");
    EXPECT_EQ(res.status, 200);
    if (!prometheus_format_ok(res.body)) {
      sane = false;
      ADD_FAILURE() << "invalid exposition on scrape " << i << ":\n" << res.body;
      break;
    }
  }
  stop.store(true, std::memory_order_release);
  driver.join();
  server.stop();
  journal.set_enabled_categories(saved);
  journal.pump();
  EXPECT_TRUE(sane);
}

}  // namespace
}  // namespace zombiescope::obs
