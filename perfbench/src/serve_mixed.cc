// serve_mixed: an in-process AttributionServer (what shapcqd runs) with
// its journal on, driven open-loop over loopback connections.
//
// Traffic: many small tenants cut from a few base databases (shifted
// constants, so their lineages share shapes and the plan and circuit
// caches hit across tenants). About 90% of requests are solves spread
// over three fingerprints (a Sum DP, a Sum query outside the frontier
// that the lineage circuits solve, and a Max DP); about 10% insert or
// delete a fact on the same tenants. Requests are due on a fixed
// schedule at one rate below the knee; each is timed from its due time.
//
// One generator thread owns every connection (one, at most nproc) and
// multiplexes sends and replies with ppoll. Each tenant's traffic
// rides one connection, so the daemon's reader thread applies it in
// order. The daemon journals a solve when it admits it but runs it
// later, so a mutation applied in between would make the journal order
// differ from the state the solve saw. The generator therefore holds a
// tenant's mutation until that tenant's in-flight solves are answered
// (later requests of the tenant queue behind it); the wait counts in the
// mutation's latency. After the load, the journal is replayed and every
// response must be bitwise-equal to its replayed record.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "shapcq/lineage/circuit_cache.h"
#include "shapcq/query/evaluator.h"
#include "shapcq/query/parser.h"
#include "shapcq/serve/client.h"
#include "shapcq/serve/journal.h"
#include "shapcq/serve/json.h"
#include "shapcq/serve/protocol.h"
#include "shapcq/serve/replay.h"
#include "shapcq/serve/server.h"
#include "shapcq/shapley/plan.h"
#include "shapcq/util/clock.h"
#include "workloads.h"

namespace perfbench {
namespace {

using shapcq::MonotonicNanos;

struct Fingerprint {
  const char* name;
  const char* query;
  const char* agg;
};

// Base relations: A(x, y), B(y) for the DPs, R(z, x), S(x, y), T(y)
// for the lineage query.
const Fingerprint kFingerprints[] = {
    {"dp", "Q(x) <- A(x, y), B(y)", "sum"},
    {"lineage", "Q(z) <- R(z, x), S(x, y), T(y)", "sum"},
    {"max", "Q(x) <- A(x, y), B(y)", "max"},
};
constexpr int kNumFingerprints = 3;

// The journal check replays one solve in this many (see
// CheckAgainstJournal).
constexpr uint64_t kReplayEvery = 4;

// Loopback connections (capped at nproc). The daemon does not set
// TCP_NODELAY, so a reply written while an earlier one is unacknowledged
// waits for the client's next request to carry the ACK. Over two or four
// connections only some replies waited, and the p50 latencies jumped
// between the two modes from run to run (op_ms.p50 spread 0.44 over ten
// seeds with two). Over one, a request goes out every 0.83 ms and nearly
// every reply waits for it, so the percentiles are steady and still
// carry the cost of the missing TCP_NODELAY.
constexpr int kConnections = 1;

struct Sizes {
  int tenants;
  int bases;       // distinct tenant shapes
  double rate;     // requests per second
  double mutation_share;
};

// Even tenants hold the DP relations A(x, y), B(y); odd tenants the
// lineage relations R(z, x), S(x, y), T(y). A tenant is base database
// `base` of its kind with every constant shifted by `offset`, so tenants
// of one base have identical lineage shapes.
shapcq::Database TenantDatabase(bool lineage, int base, int offset,
                                uint64_t seed) {
  using shapcq::Value;
  std::mt19937_64 rng(seed * 1000003 + static_cast<uint64_t>(base));
  std::bernoulli_distribution endogenous(0.75);
  std::uniform_int_distribution<int> pick(0, 11);
  shapcq::Database db;
  auto add = [&](const char* relation, shapcq::Tuple args) {
    if (!db.Contains(relation, args)) {
      db.AddFact(relation, std::move(args), endogenous(rng));
    }
  };
  if (!lineage) {
    for (int i = 0; i < 4; ++i) add("B", {Value(offset + i)});
    for (int i = 0; i < 9; ++i) {
      add("A", {Value(offset + 100 + i % 6), Value(offset + pick(rng) % 4)});
    }
  } else {
    for (int i = 0; i < 3; ++i) add("T", {Value(offset + i)});
    for (int i = 0; i < 6; ++i) {
      add("S", {Value(offset + 200 + pick(rng) % 4),
                Value(offset + pick(rng) % 3)});
    }
    for (int i = 0; i < 7; ++i) {
      add("R", {Value(offset + 300 + i % 5),
                Value(offset + 200 + pick(rng) % 4)});
    }
  }
  return db;
}

bool IsLineageTenant(int tenant) { return tenant % 2 == 1; }

// One loopback connection, non-blocking, with its read buffer.
struct Connection {
  int fd = -1;
  std::string buffer;
};

bool WriteAll(int fd, const std::string& line) {
  size_t done = 0;
  while (done < line.size()) {
    ssize_t n = ::send(fd, line.data() + done, line.size() - done,
                       MSG_NOSIGNAL);
    if (n > 0) {
      done += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
      pollfd p{fd, POLLOUT, 0};
      ::poll(&p, 1, 100);
    } else {
      return false;
    }
  }
  return true;
}

// Server spans of one traced solve, from its span dump.
struct ServerSpans {
  double queue_wait_ms = 0;
  double plan_ms = 0;
  double solve_ms = 0;
  double extract_ms = 0;
  double compile_ms = 0;
  double wasted_compile_ms = 0;
  double engine_ms = 0;    // engine attempts, lineage spans included
  double rejected_ms = 0;  // engine attempts that solved no fact
};

bool ParseServerSpans(const std::string& dump, ServerSpans* out) {
  shapcq::StatusOr<shapcq::JsonValue> json = shapcq::ParseJson(dump);
  if (!json.ok()) return false;
  const shapcq::JsonValue* spans = json->Find("spans");
  if (spans == nullptr) return false;
  bool budget_fallback = false;
  for (const shapcq::JsonValue& span : spans->array) {
    const std::string stage = span.GetString("stage");
    const double ms = span.GetNumber("us") / 1e3;
    if (stage == "queue_wait") out->queue_wait_ms += ms;
    if (stage == "plan") out->plan_ms += ms;
    if (stage == "solve") out->solve_ms += ms;
    if (stage == "lineage_extract") out->extract_ms += ms;
    if (stage == "lineage_compile") out->compile_ms += ms;
    if (stage.rfind("engine:", 0) == 0) {
      out->engine_ms += ms;
      if (span.GetInt64("facts_solved", -1) == 0) out->rejected_ms += ms;
    }
    if (stage == "engine:lineage-circuit" &&
        span.GetInt64("budget_fallbacks") > 0) {
      budget_fallback = true;
    }
  }
  if (budget_fallback) out->wasted_compile_ms = out->compile_ms;
  return true;
}

// A digest of scored facts: fact id, exactness, exact value text, and
// the bits of every double. Equal digests mean bitwise-equal results.
class Digest {
 public:
  void Add(shapcq::FactId fact, bool exact, const std::string& exact_value,
           double value, double std_error, int64_t samples) {
    Mix(&fact, sizeof(fact));
    Mix(&exact, sizeof(exact));
    Mix(exact_value.data(), exact_value.size());
    Mix(&value, sizeof(value));
    Mix(&std_error, sizeof(std_error));
    Mix(&samples, sizeof(samples));
  }
  uint64_t value() const { return hash_; }

 private:
  void Mix(const void* data, size_t size) {
    const unsigned char* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001b3ULL;
    }
    hash_ = (hash_ ^ 0xff) * 0x100000001b3ULL;  // field separator
  }
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// What the generator keeps of a reply: enough for the accounting, the
// span breakdown and the replay check, without holding whole responses.
struct Reply {
  bool ok = false;
  std::string code;  // status code name when !ok
  std::string error;
  bool degraded = false;
  double solve_ms = 0;  // the daemon's own solve time
  uint64_t digest = 0;  // Digest of the scored facts
  int64_t facts = 0;        // scored facts
  int64_t exact_facts = 0;  // ... of which exact
  bool has_spans = false;
  ServerSpans spans;
  std::map<std::string, int64_t> engine_facts;  // per family, traced only
};

struct Request {
  uint64_t id = 0;
  int tenant = 0;
  int fingerprint = -1;  // -1: mutation
  std::string line;
  uint64_t due_ns = 0;
  uint64_t reached_ns = 0;  // when the generator got to it
  uint64_t sent_ns = 0;
  uint64_t done_ns = 0;
  bool traced = false;
  bool answered = false;
  Reply reply;
};

// Reads a counter or gauge from Prometheus text; 0 when absent.
double Scrape(const std::string& text, const std::string& series) {
  size_t at = 0;
  while ((at = text.find(series, at)) != std::string::npos) {
    const bool line_start = at == 0 || text[at - 1] == '\n';
    const size_t value = at + series.size();
    if (line_start && value < text.size() && text[value] == ' ') {
      return std::strtod(text.c_str() + value + 1, nullptr);
    }
    at = value;
  }
  return 0;
}

class ServeRun {
 public:
  ServeRun(const Config& config, const Sizes& sizes, Report* report)
      : config_(config), sizes_(sizes), report_(report),
        rng_(config.seed ^ 0x5e11e5ULL) {}
  ~ServeRun() { Stop(); }

  ServeRun(const ServeRun&) = delete;
  ServeRun& operator=(const ServeRun&) = delete;

  // Builds the tenants, starts the server, connects, and warms the
  // caches with one solve per (tenant, fingerprint).
  bool Start(int attempt) {
    shapcq::PlanCache::Global().Clear();
    shapcq::CircuitCache::Global().Clear();
    journal_path_ = config_.out_dir + "/serve-" +
                    std::to_string(config_.seed) + "-" +
                    std::to_string(attempt) + ".journal";
    std::remove(journal_path_.c_str());
    shapcq::ServerOptions options;
    options.port = 0;
    options.metrics_port = 0;
    options.worker_threads = 4;
    options.journal_path = journal_path_;
    options.trace_level = shapcq::TraceLevel::kOff;
    server_ = std::make_unique<shapcq::AttributionServer>(options);
    tenants_.clear();
    for (int t = 0; t < sizes_.tenants; ++t) {
      auto db = std::make_shared<const shapcq::Database>(
          TenantDatabase(IsLineageTenant(t), (t / 2) % sizes_.bases,
                         1000 * t, config_.seed));
      tenants_.push_back(db);
      server_->RegisterTenant(TenantName(t), *db);
    }
    shapcq::Status started = server_->Start();
    if (!started.ok()) {
      report_->Failed("server start: " + started.ToString());
      return false;
    }
    const int count = std::min<int>(
        std::max(1u, std::thread::hardware_concurrency()), kConnections);
    connections_.assign(static_cast<size_t>(count), Connection{});
    for (Connection& c : connections_) {
      c.fd = Connect(server_->port());
      if (c.fd < 0) {
        report_->Failed("connect");
        return false;
      }
    }
    // Warm-up: every (tenant, fingerprint) once, closed-loop.
    for (int t = 0; t < sizes_.tenants; ++t) {
      for (int f = 0; f < kNumFingerprints; ++f) {
        if ((f == 1) != IsLineageTenant(t)) continue;
        Request& r = NewSolve(t, f, false);
        r.due_ns = MonotonicNanos();
        Send(&r);
        const uint64_t deadline = r.due_ns + 10'000'000'000ULL;
        while (!r.answered && MonotonicNanos() < deadline) Pump(50'000'000);
        if (!r.answered) {
          report_->Failed("warm-up solve timed out");
          return false;
        }
      }
    }
    return true;
  }

  // Open-loop load for `seconds` at the configured rate.
  void Load(double seconds, bool traced) {
    const uint64_t interval =
        static_cast<uint64_t>(1e9 / sizes_.rate);
    const int64_t total = static_cast<int64_t>(seconds * sizes_.rate);
    const uint64_t t0 = MonotonicNanos() + 1'000'000;
    std::uniform_int_distribution<int> tenant(0, sizes_.tenants - 1);
    std::uniform_int_distribution<int> fingerprint(0, kNumFingerprints - 1);
    std::bernoulli_distribution mutation(sizes_.mutation_share);
    int64_t next = 0;
    while (true) {
      const uint64_t now = MonotonicNanos();
      while (next < total &&
             t0 + static_cast<uint64_t>(next) * interval <= now) {
        int t = tenant(rng_);
        Request* r = nullptr;
        if (mutation(rng_)) {
          r = &NewMutation(t);
        } else {
          // Solves pick a fingerprint, then a tenant holding its relations.
          const int f = fingerprint(rng_);
          if ((f == 1) != IsLineageTenant(t)) t = (t + 1) % sizes_.tenants;
          r = &NewSolve(t, f, traced);
        }
        r->due_ns = t0 + static_cast<uint64_t>(next) * interval;
        r->reached_ns = now;
        Dispatch(r->id);
        ++next;
      }
      if (next >= total && unanswered_ == 0) break;
      uint64_t wait = 20'000'000;
      if (next < total) {
        const uint64_t due = t0 + static_cast<uint64_t>(next) * interval;
        wait = due > now ? due - now : 0;
      }
      if (next >= total && Seconds(t0, now) > seconds + 30) {
        report_->Failed("load did not drain within 30 s");
        break;
      }
      Pump(wait);
    }
  }

  // Stops the server (closing the journal) and the connections.
  void Stop() {
    for (Connection& c : connections_) {
      if (c.fd >= 0) ::close(c.fd);
      c.fd = -1;
    }
    if (server_ != nullptr) server_->Stop();
  }

  // Replays the journal against the tenants' initial databases and
  // compares the answered solves it replays with their records, bitwise.
  void CheckAgainstJournal() {
    std::map<std::string, std::shared_ptr<const shapcq::Database>> dbs;
    for (int t = 0; t < sizes_.tenants; ++t) dbs[TenantName(t)] = tenants_[t];
    report_->Attempted();
    shapcq::StatusOr<std::vector<shapcq::JournalRecord>> records =
        shapcq::ReadJournal(journal_path_);
    if (!records.ok()) {
      report_->Failed("journal read: " + records.status().ToString());
      return;
    }
    // Every mutation is replayed (later solves depend on it), and every
    // kReplayEvery-th solve by request id: a replayed solve costs as
    // much as the daemon's, and a full replay would take longer than
    // the load itself.
    std::vector<shapcq::JournalRecord> sampled;
    for (const shapcq::JournalRecord& record : *records) {
      if (record.op != shapcq::JournalOp::kSolve ||
          record.request.id % kReplayEvery == 0) {
        sampled.push_back(record);
      }
    }
    shapcq::ReplayOptions options;
    options.num_threads = 1;
    options.run_cold_pass = false;
    shapcq::StatusOr<shapcq::ReplayResult> replay =
        shapcq::ReplayJournal(sampled, dbs, options);
    if (!replay.ok()) {
      report_->WrongAnswer("journal replay: " + replay.status().ToString());
      return;
    }
    int64_t compared = 0;
    for (size_t i = 0; i < sampled.size(); ++i) {
      const shapcq::JournalRecord& record = sampled[i];
      auto it = by_id_.find(record.request.id);
      if (it == by_id_.end() || record.op != shapcq::JournalOp::kSolve) {
        continue;
      }
      const Request& r = requests_[it->second];
      if (!r.answered || !r.reply.ok) continue;
      ++compared;
      Digest replayed;
      for (const auto& [fact, result] : replay->results[i]) {
        replayed.Add(fact, result.is_exact,
                     result.is_exact ? result.exact.ToString() : "",
                     result.approximation, result.std_error, result.samples);
      }
      if (replayed.value() != r.reply.digest) {
        report_->WrongAnswer("request " + std::to_string(r.id) +
                             " differs from its journal replay");
      }
    }
    report_->Note("journal: " + std::to_string(records->size()) +
                  " records; " + std::to_string(compared) +
                  " solve responses compared with the replay");
    journal_bytes_ = 0;
    if (FILE* f = std::fopen(journal_path_.c_str(), "rb")) {
      std::fseek(f, 0, SEEK_END);
      journal_bytes_ = static_cast<double>(std::ftell(f));
      std::fclose(f);
    }
    journal_records_ = static_cast<double>(records->size());
    std::remove(journal_path_.c_str());
  }

  std::string Metrics() const {
    shapcq::StatusOr<std::string> text =
        shapcq::HttpGet(server_->metrics_port(), "/metrics");
    return text.ok() ? *text : "";
  }

  const std::deque<Request>& requests() const { return requests_; }
  const std::vector<std::shared_ptr<const shapcq::Database>>& tenants() const {
    return tenants_;
  }
  int connections() const { return static_cast<int>(connections_.size()); }
  double journal_bytes() const { return journal_bytes_; }
  double journal_records() const { return journal_records_; }
  void RemoveJournal() { std::remove(journal_path_.c_str()); }

 private:
  static std::string TenantName(int t) { return "t" + std::to_string(t); }

  static int Connect(int port) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return -1;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    return fd;
  }

  Request& NewSolve(int tenant, int fingerprint, bool traced) {
    shapcq::SolveRequest s;
    s.id = ++last_id_;
    s.tenant = TenantName(tenant);
    s.query = kFingerprints[fingerprint].query;
    s.agg = kFingerprints[fingerprint].agg;
    s.tau = "id:1";
    s.threads = 1;
    s.seed = config_.seed;
    s.trace = traced;
    Request r;
    r.id = s.id;
    r.tenant = tenant;
    r.fingerprint = fingerprint;
    r.traced = traced;
    r.line = shapcq::SerializeSolveRequest(s) + "\n";
    return Register(std::move(r));
  }

  // Inserts a fresh fact into the tenant, or deletes the one it inserted
  // last, so tenants keep their size.
  Request& NewMutation(int tenant) {
    Request r;
    r.id = ++last_id_;
    r.tenant = tenant;
    std::string& inserted = inserted_[tenant];
    const int offset = 1000 * tenant;
    const char* probe = kFingerprints[IsLineageTenant(tenant) ? 1 : 0].query;
    if (inserted.empty()) {
      std::uniform_int_distribution<int> pick(0, 3);
      const int fresh = offset + 500 + static_cast<int>(r.id % 400);
      inserted = IsLineageTenant(tenant)
                     ? "R(" + std::to_string(fresh) + ", " +
                           std::to_string(offset + 200 + pick(rng_)) + ")"
                     : "A(" + std::to_string(fresh) + ", " +
                           std::to_string(offset + pick(rng_)) + ")";
      r.line = shapcq::SerializeInsertFact(r.id, TenantName(tenant),
                                           "+" + inserted, probe) +
               "\n";
    } else {
      r.line = shapcq::SerializeDeleteFact(r.id, TenantName(tenant), inserted,
                                           probe) +
               "\n";
      inserted.clear();
    }
    return Register(std::move(r));
  }

  Request& Register(Request r) {
    ++unanswered_;
    by_id_[r.id] = requests_.size();
    requests_.push_back(std::move(r));
    return requests_.back();
  }

  Connection& ConnectionOf(int tenant) {
    return connections_[static_cast<size_t>(tenant) % connections_.size()];
  }

  void Send(Request* r) {
    r->sent_ns = MonotonicNanos();
    if (r->fingerprint >= 0) ++solves_in_flight_[r->tenant];
    if (!WriteAll(ConnectionOf(r->tenant).fd, r->line)) {
      report_->Failed("send failed");
    }
  }

  // Sends request `id` now, unless the tenant's fence holds it.
  void Dispatch(uint64_t id) {
    Request& r = requests_[by_id_[id]];
    std::deque<uint64_t>& held = held_[r.tenant];
    if (held.empty() &&
        (r.fingerprint >= 0 || solves_in_flight_[r.tenant] == 0)) {
      Send(&r);
    } else {
      held.push_back(id);
    }
  }

  // Releases held requests whose fence has cleared.
  void Release(int tenant) {
    std::deque<uint64_t>& held = held_[tenant];
    while (!held.empty()) {
      Request& r = requests_[by_id_[held.front()]];
      if (r.fingerprint < 0 && solves_in_flight_[tenant] > 0) return;
      held.pop_front();
      Send(&r);
    }
  }


  // Waits up to `wait_ns` for replies and handles every complete line.
  // False when nothing arrived.
  bool Pump(uint64_t wait_ns) {
    std::vector<pollfd> fds;
    for (const Connection& c : connections_) fds.push_back({c.fd, POLLIN, 0});
    timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                     static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready <= 0) return false;
    for (size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Connection& c = connections_[i];
      char chunk[65536];
      while (true) {
        ssize_t n = ::recv(c.fd, chunk, sizeof(chunk), 0);
        if (n <= 0) break;
        c.buffer.append(chunk, static_cast<size_t>(n));
      }
      size_t newline;
      while ((newline = c.buffer.find('\n')) != std::string::npos) {
        std::string line = c.buffer.substr(0, newline);
        c.buffer.erase(0, newline + 1);
        HandleReply(line);
      }
    }
    return true;
  }

  void HandleReply(const std::string& line) {
    const uint64_t now = MonotonicNanos();
    shapcq::StatusOr<shapcq::SolveResponse> response =
        shapcq::ParseResponseLine(line);
    if (!response.ok()) {
      report_->Failed("unparseable reply");
      return;
    }
    auto it = by_id_.find(response->id);
    if (it == by_id_.end()) {
      report_->Failed("reply to unknown id " + std::to_string(response->id));
      return;
    }
    Request& r = requests_[it->second];
    if (r.answered) {
      report_->Failed("second reply to id " + std::to_string(r.id));
      return;
    }
    r.done_ns = now;
    r.answered = true;
    --unanswered_;
    Reply& reply = r.reply;
    reply.ok = response->status == "ok";
    reply.code = response->code;
    reply.error = response->error;
    reply.degraded = response->degraded;
    reply.solve_ms = response->solve_ms;
    Digest digest;
    for (const shapcq::FactScore& f : response->results) {
      digest.Add(f.fact, f.exact, f.exact_value, f.value, f.std_error,
                 f.samples);
      ++reply.facts;
      reply.exact_facts += f.exact ? 1 : 0;
      if (r.traced) {
        const std::string family = EngineFamily(f.algorithm);
        if (!family.empty()) ++reply.engine_facts[family];
      }
    }
    reply.digest = digest.value();
    if (r.traced && reply.ok) {
      reply.has_spans = ParseServerSpans(response->trace, &reply.spans);
    }
    if (r.fingerprint >= 0) --solves_in_flight_[r.tenant];
    Release(r.tenant);
  }

  Config config_;
  Sizes sizes_;
  Report* report_;
  std::mt19937_64 rng_;
  std::string journal_path_;
  std::unique_ptr<shapcq::AttributionServer> server_;
  std::vector<std::shared_ptr<const shapcq::Database>> tenants_;
  std::vector<Connection> connections_;
  std::deque<Request> requests_;  // stable references while growing
  std::unordered_map<uint64_t, size_t> by_id_;
  std::map<int, std::deque<uint64_t>> held_;
  std::map<int, int> solves_in_flight_;
  std::map<int, std::string> inserted_;
  uint64_t last_id_ = 0;
  int64_t unanswered_ = 0;
  double journal_bytes_ = 0;
  double journal_records_ = 0;
};

// The per-layer numbers of the traced half (solves from `traced_from`
// on), per solve request, from the span dumps, the /metrics scrapes
// taken before and after it, and the benchmark's own calls.
void ReportLayers(const ServeRun& run, size_t traced_from,
                  const std::string& before, const std::string& after,
                  SpanLog* spans, Report* report, LayerMetrics* layers) {
  const std::deque<Request>& requests = run.requests();
  std::vector<double> queue_wait;
  double plan = 0, solve = 0, overhead = 0, latency = 0;
  double extract = 0, compile = 0, wasted = 0, engine = 0, rejected = 0;
  double join = 0, homs = 0;
  std::map<std::string, double> engine_facts;
  int64_t traced = 0, lineage_solves = 0, rejects = 0, degraded_traced = 0;
  std::map<std::pair<int, int>, std::pair<double, double>> join_cost;
  for (size_t i = traced_from; i < requests.size(); ++i) {
    const Request& r = requests[i];
    if (!r.answered) continue;
    if (r.reply.code == "RESOURCE_EXHAUSTED") ++rejects;
    if (r.fingerprint < 0 || !r.reply.ok) continue;
    degraded_traced += r.reply.degraded ? 1 : 0;
    if (!r.reply.has_spans) {
      report->Failed("request " + std::to_string(r.id) + ": no span dump");
      continue;
    }
    const ServerSpans& server = r.reply.spans;
    ++traced;
    const uint64_t request = spans->NewRequest();
    const int root =
        spans->Add(request, "serve.request", -1, r.sent_ns, r.done_ns);
    for (const auto& [name, ms] :
         {std::pair<const char*, double>{"queue_wait", server.queue_wait_ms},
          {"plan", server.plan_ms},
          {"solve", server.solve_ms}}) {
      spans->Add(request, name, root, 0, static_cast<uint64_t>(ms * 1e6));
    }
    const double client_ms = Seconds(r.sent_ns, r.done_ns) * 1e3;
    queue_wait.push_back(server.queue_wait_ms);
    plan += server.plan_ms;
    solve += server.solve_ms;
    latency += client_ms;
    overhead += client_ms -
                (server.queue_wait_ms + server.plan_ms + server.solve_ms);
    extract += server.extract_ms;
    compile += server.compile_ms;
    wasted += server.wasted_compile_ms;
    // The lineage spans nest inside the engine attempt that ran them.
    engine += server.engine_ms - server.extract_ms - server.compile_ms;
    rejected += server.rejected_ms;
    for (const auto& [family, facts] : r.reply.engine_facts) {
      engine_facts[family] += static_cast<double>(facts);
    }
    if (r.fingerprint == 1) ++lineage_solves;
    // The join this solve's engines ran, timed by a public call on the
    // tenant's initial database (once per tenant and query).
    auto key = std::make_pair(r.tenant, r.fingerprint);
    auto cost = join_cost.find(key);
    if (cost == join_cost.end()) {
      const shapcq::ConjunctiveQuery q =
          shapcq::MustParseQuery(kFingerprints[r.fingerprint].query);
      std::vector<double> ms;
      size_t count = 0;
      for (int k = 0; k < 5; ++k) {
        const int span =
            spans->Begin(request, "query.EnumerateHomomorphismIds");
        count = shapcq::EnumerateHomomorphismIds(q, *run.tenants()[r.tenant])
                    .used_facts.size();
        spans->End(span);
        ms.push_back(spans->DurationMs(span));
      }
      cost = join_cost.emplace(key, std::make_pair(Median(ms),
                                                   static_cast<double>(count)))
                 .first;
    }
    join += cost->second.first;
    homs += cost->second.second;
  }
  const double n = static_cast<double>(std::max<int64_t>(traced, 1));
  auto delta = [&](const char* series) {
    return Scrape(after, series) - Scrape(before, series);
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };

  for (const std::string& family : EngineFamilies()) {
    layers->Set("shapley.engine_facts." + family, engine_facts[family] / n,
                traced);
  }
  layers->Set("shapley.engine_share", ratio(engine, latency), traced);
  layers->Set("shapley.rejected_share", ratio(rejected, latency), traced);
  layers->Set("lineage.compile_share", ratio(extract + compile, latency),
              traced);
  layers->Set("lineage.wasted_share", ratio(wasted, latency), traced);
  layers->Set("lineage.circuits",
              delta("shapcq_lineage_circuits_compiled_total") / n, traced);
  layers->Set("lineage.circuit_nodes",
              delta("shapcq_lineage_circuit_nodes_total") / n, traced);
  layers->Set("lineage.budget_fallbacks",
              delta("shapcq_lineage_budget_fallbacks_total") / n, traced);
  const double circuit_hits = delta("shapcq_circuit_cache_hits_total");
  layers->Set("lineage.cache_hit_ratio",
              ratio(circuit_hits,
                    circuit_hits + delta("shapcq_circuit_cache_misses_total")),
              traced);
  layers->Set("query.join_ms", join / n, traced);
  layers->Set("query.homs", homs / n, traced);
  layers->Set("query.join_share", ratio(join, solve), traced);
  layers->Set("serve.serve_share", ratio(overhead, latency), traced);
  layers->Set("serve.admission_rejects", static_cast<double>(rejects), traced);
  layers->Set("serve.degraded", static_cast<double>(degraded_traced), traced);
  layers->Set("serve.journal_bytes_per_op",
              ratio(run.journal_bytes(), run.journal_records()),
              static_cast<int64_t>(run.journal_records()));

  // shapley.plan_ms: PlanCache::GetOrCompile as the daemon calls it.
  std::vector<double> plan_calls;
  for (const Fingerprint& f : kFingerprints) {
    const shapcq::AggregateQuery a = MakeQuery(f.query, f.agg, "id:1");
    for (int k = 0; k < 200; ++k) {
      const uint64_t start = MonotonicNanos();
      shapcq::PlanCache::Global().GetOrCompile(a);
      plan_calls.push_back(Seconds(start, MonotonicNanos()) * 1e3);
    }
  }
  const double plan_hits = delta("shapcq_plan_cache_hits_total");
  report->Detail("shapley.plan_ms", Median(plan_calls), "ms",
                 static_cast<int64_t>(plan_calls.size()));
  report->Detail("shapley.plan_hit_ratio",
                 ratio(plan_hits,
                       plan_hits + delta("shapcq_plan_cache_misses_total")),
                 "ratio", traced);
  const double nl = static_cast<double>(std::max<int64_t>(lineage_solves, 1));
  report->Detail("lineage.compile_ms", compile / nl, "ms", lineage_solves);
  report->Detail("serve.queue_wait_ms.p50", Quantile(queue_wait, 0.5), "ms",
                 traced);
  report->Detail("serve.queue_wait_ms.p99", Quantile(queue_wait, 0.99), "ms",
                 traced);
  report->Detail("serve.plan_ms", plan / n, "ms", traced);
  report->Detail("serve.solve_span_ms", solve / n, "ms", traced);
  report->Detail("serve.overhead_ms", overhead / n, "ms", traced);
}

}  // namespace

void RunServeMixed(const Config& config, Report* report, SpanLog* spans) {
  // 400 requests/s keeps the daemon far below its knee on a shared 4-core
  // host. At 1200 and at 600 requests/s its queues grew whenever the host
  // slowed, and op_ms.p50 spread 0.35 and 0.23 over ten and six seeds;
  // at 400 the spread was 0.05. Most of a request's latency here is the
  // wait for the next request to carry the ACK (see kConnections).
  const Sizes sizes =
      config.smoke ? Sizes{4, 2, 200, 0.1} : Sizes{24, 4, 400, 0.1};
  std::vector<double> setup;
  std::unique_ptr<ServeRun> run;
  for (int i = 0; MoreSetups(setup); ++i) {
    if (run != nullptr) {
      run->Stop();
      run->RemoveJournal();
    }
    run = std::make_unique<ServeRun>(config, sizes, report);
    const uint64_t start = MonotonicNanos();
    if (!run->Start(i)) return;
    setup.push_back(Seconds(start, MonotonicNanos()));
  }
  const int nproc = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  report->Note("generator: 1 thread, " + std::to_string(run->connections()) +
               " connections, nproc " + std::to_string(nproc) + "; " +
               std::to_string(sizes.tenants) + " tenants; open loop at " +
               std::to_string(static_cast<int>(sizes.rate)) + " req/s");
  if (run->connections() > nproc) {
    report->Failed("generator exceeds nproc threads or connections");
  }
  const size_t warm = run->requests().size();
  size_t traced_from = warm;
  std::string before;
  std::string after;
  double rss = 0;
  if (!config.trace) {
    run->Load(config.seconds, false);
    rss = PeakRssMb();
  } else {
    run->Load(config.seconds / 2, false);
    traced_from = run->requests().size();
    before = run->Metrics();
    run->Load(config.seconds / 2, true);
    after = run->Metrics();
  }
  run->Stop();

  // Accounting over the measured requests.
  std::vector<double> solve_ms[2];  // [untraced, traced]
  std::vector<double> mutate_ms;
  int64_t facts = 0;
  int64_t exact_facts = 0;
  std::vector<double> late_ms;
  std::vector<double> fence_ms;
  int64_t refused = 0;
  int64_t degraded = 0;
  const std::deque<Request>& requests = run->requests();
  for (size_t i = warm; i < requests.size(); ++i) {
    const Request& r = requests[i];
    report->Attempted();
    late_ms.push_back(Seconds(r.due_ns, r.reached_ns) * 1e3);
    if (!r.answered) {
      report->Failed("request " + std::to_string(r.id) + " unanswered");
      continue;
    }
    if (!r.reply.ok) {
      if (r.reply.code == "RESOURCE_EXHAUSTED") ++refused;
      report->Failed("request " + std::to_string(r.id) + ": " +
                     r.reply.code + " " + r.reply.error);
      continue;
    }
    const double ms = Seconds(r.due_ns, r.done_ns) * 1e3;
    if (r.fingerprint >= 0) {
      solve_ms[i >= traced_from && config.trace ? 1 : 0].push_back(ms);
      degraded += r.reply.degraded ? 1 : 0;
      facts += r.reply.facts;
      exact_facts += r.reply.exact_facts;
    } else {
      mutate_ms.push_back(ms);
      fence_ms.push_back(Seconds(r.reached_ns, r.sent_ns) * 1e3);
    }
  }
  std::vector<double> server_solve[kNumFingerprints];
  for (size_t i = warm; i < requests.size(); ++i) {
    const Request& r = requests[i];
    if (r.answered && r.fingerprint >= 0 && r.reply.ok) {
      server_solve[r.fingerprint].push_back(r.reply.solve_ms);
    }
  }
  std::string solve_line = "server solve_ms p50 by fingerprint:";
  for (int f = 0; f < kNumFingerprints; ++f) {
    solve_line += std::string(" ") + kFingerprints[f].name + " " +
                  std::to_string(Median(server_solve[f]));
  }
  report->Note(solve_line);
  char line[256];
  std::snprintf(line, sizeof(line),
                "admission refusals %lld, degraded %lld; generator lateness "
                "p99 %.3f ms, max %.3f ms; mutation fence wait p99 %.3f ms",
                static_cast<long long>(refused),
                static_cast<long long>(degraded), Quantile(late_ms, 0.99),
                Quantile(late_ms, 1.0), Quantile(fence_ms, 0.99));
  report->Note(line);
  run->CheckAgainstJournal();

  if (!config.trace) {
    const int64_t solves = static_cast<int64_t>(solve_ms[0].size());
    const int64_t mutations = static_cast<int64_t>(mutate_ms.size());
    std::vector<double> op_ms = solve_ms[0];
    op_ms.insert(op_ms.end(), mutate_ms.begin(), mutate_ms.end());
    report->Metric("setup_s", Median(setup), "s",
                   static_cast<int64_t>(setup.size()));
    report->Metric("peak_rss_mb", rss, "MB", 1);
    report->Metric("op_ms.p50", Quantile(op_ms, 0.5), "ms",
                   solves + mutations);
    report->Metric("exact_share",
                   facts > 0 ? static_cast<double>(exact_facts) /
                                   static_cast<double>(facts)
                             : 0,
                   "ratio", facts);
    report->Detail("op_ms.p10", Quantile(op_ms, 0.1), "ms",
                   solves + mutations);
    report->Detail("op_ms.p99", Quantile(op_ms, 0.99), "ms",
                   solves + mutations);
    report->Detail("solve_ms.p50", Quantile(solve_ms[0], 0.5), "ms", solves);
    report->Detail("solve_ms.p99", Quantile(solve_ms[0], 0.99), "ms", solves);
    report->Detail("mutate_ms.p50", Quantile(mutate_ms, 0.5), "ms", mutations);
    report->Detail("mutate_ms.p99", Quantile(mutate_ms, 0.99), "ms",
                   mutations);
    return;
  }

  LayerMetrics layers;
  ReportLayers(*run, traced_from, before, after, spans, report, &layers);
  MeasureConvolve(config.smoke, spans, report, &layers);
  layers.Set("obs.trace_overhead_pct",
             OverheadPct(Quantile(solve_ms[0], 0.5),
                         Quantile(solve_ms[1], 0.5)),
             static_cast<int64_t>(solve_ms[0].size() + solve_ms[1].size()));
  layers.Emit(report);
}

}  // namespace perfbench
