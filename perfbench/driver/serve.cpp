// Workload `serve`: the real `faure serve` binary driven over its stdin
// line protocol by one closed-loop client (this process), with -j1 and
// full output, on the two-team network (network.hpp) at 40 links.
//
// Op i sends `EVAL r<i> <script>` + `GO` and reads the RESULT frame;
// the script is request (seed, i mod 64): two seeded Acl edits (one
// retraction of an existing row, one insertion), a policy-only
// scenario. Checks: exit 0, a payload of exactly the RESULT header's
// byte count, and a payload checksum equal to the single-scenario
// answer computed in-process before the timed phase.
//
// The traced op also replays the request in-process, after its reply:
// once through fl::ScenarioSet::evaluate (the server's own call; root
// span scenario.evaluate), and once split into its layers (clone, edit
// parse, incremental apply/reevaluate, render) with the same public
// functions evaluateOne uses (under the root span serve.replay).
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "datalog/parser.hpp"
#include "faurelog/incremental.hpp"
#include "faurelog/scenario.hpp"
#include "faurelog/textio.hpp"
#include "network.hpp"

namespace perfbench {
namespace {

using namespace faure;

constexpr size_t kRequests = 64;

/// A `faure serve` child process with its stdin/stdout pipes.
class Server {
 public:
  Server(const std::string& binary, const std::vector<std::string>& args) {
    int toChild[2];
    int fromChild[2];
    if (::pipe(toChild) != 0 || ::pipe(fromChild) != 0) {
      throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
    }
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::dup2(toChild[0], 0);
      ::dup2(fromChild[1], 1);
      ::close(toChild[0]);
      ::close(toChild[1]);
      ::close(fromChild[0]);
      ::close(fromChild[1]);
      ::execv(binary.c_str(), argv.data());
      std::fprintf(stderr, "cannot exec %s: %s\n", binary.c_str(),
                   std::strerror(errno));
      ::_exit(127);
    }
    ::close(toChild[0]);
    ::close(fromChild[1]);
    in_ = ::fdopen(toChild[1], "w");
    out_ = ::fdopen(fromChild[0], "r");
  }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  ~Server() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      stop();
    }
  }

  /// Reads one line (without the newline); false at end of stream.
  bool readLine(std::string& line) {
    line.clear();
    int c;
    while ((c = std::fgetc(out_)) != EOF && c != '\n') line += static_cast<char>(c);
    return c != EOF || !line.empty();
  }

  bool readBytes(std::string& buf, size_t n) {
    buf.resize(n);
    return std::fread(buf.data(), 1, n, out_) == n;
  }

  void send(const std::string& text) {
    if (std::fwrite(text.data(), 1, text.size(), in_) != text.size() ||
        std::fflush(in_) != 0) {
      throw std::runtime_error("server pipe closed");
    }
  }

  /// Sends QUIT, closes the pipes and reaps the process; returns its
  /// peak RSS in MB.
  double stop() {
    if (pid_ <= 0) return peakMb_;
    if (in_ != nullptr) {
      std::fputs("QUIT\n", in_);
      std::fclose(in_);
      in_ = nullptr;
    }
    if (out_ != nullptr) {
      std::fclose(out_);
      out_ = nullptr;
    }
    int status = 0;
    rusage ru{};
    while (::wait4(pid_, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    exitOk_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    peakMb_ = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return peakMb_;
  }

  bool exitOk() const { return exitOk_; }

 private:
  pid_t pid_ = -1;
  std::FILE* in_ = nullptr;
  std::FILE* out_ = nullptr;
  bool exitOk_ = false;
  double peakMb_ = 0.0;
};

struct Answer {
  size_t bytes = 0;
  uint64_t checksum = 0;
};

class Serve : public Workload {
 public:
  explicit Serve(const Options& o)
      : opts_(o), net_(makeNetwork(o.size != 0 ? o.size : 40, o.seed)) {
    if (opts_.faureBinary.empty() || opts_.ioDir.empty()) {
      throw std::runtime_error("serve needs --faure BIN and --io-dir DIR");
    }
    ::signal(SIGPIPE, SIG_IGN);
    ::mkdir(opts_.ioDir.c_str(), 0755);
    const std::string stem = opts_.ioDir + "/serve-" + std::to_string(o.seed) +
                             "-" + std::to_string(net_.links);
    dbPath_ = stem + ".fdb";
    programPath_ = stem + ".fl";
    writeFile(dbPath_, net_.dbText);
    writeFile(programPath_, net_.programText);
    util::Rng rng(0x5e7eULL + o.seed * 0x9e3779b97f4a7c15ULL);
    for (size_t r = 0; r < kRequests; ++r) {
      const auto& [app, port] = net_.acl[rng.below(net_.acl.size())];
      const std::string newApp = "app" + std::to_string(rng.below(net_.acl.size()));
      scripts_.push_back("-Acl(" + app + ", " + std::to_string(port) +
                         ");+Acl(" + newApp + ", " +
                         std::to_string(rng.range(20, 9000)) + ")");
    }
  }

  void setup() override {
    server_ = std::make_unique<Server>(
        opts_.faureBinary,
        std::vector<std::string>{"serve", dbPath_, programPath_, "-j1"});
    std::string line;
    if (!server_->readLine(line) || line != "READY") {
      throw std::runtime_error("server did not answer READY (got '" + line + "')");
    }
  }

  void prepareChecks() override {
    for (int k = 0; k < 3; ++k) {
      const double t0 = now();
      rel::Database db = fl::parseDatabase(net_.dbText);
      parseDbSeconds_.push_back(now() - t0);
    }
    rel::Database db = fl::parseDatabase(net_.dbText);
    dl::Program program = dl::parseProgram(net_.programText, db.cvars());
    fl::ScenarioSetOptions so;
    so.eval.threads = 1;
    set_ = std::make_unique<fl::ScenarioSet>(program, std::move(db), so);
    for (size_t r = 0; r < kRequests; ++r) {
      fl::ScenarioOutcome out = set_->evaluate({scenario(r)}).at(0);
      if (out.exitCode != 0) {
        throw std::runtime_error("single-scenario answer failed: " + out.message);
      }
      answers_.push_back({out.output.size(), fnv1a(out.output)});
    }
    // The in-process replay's resident base state (what prepare() keeps).
    base_ = std::make_unique<rel::Database>(fl::parseDatabase(net_.dbText));
    program_ = dl::parseProgram(net_.programText, base_->cvars());
    cache_ = std::make_unique<smt::VerdictCache>(base_->cvars());
    smt::NativeSolver solver(base_->cvars());
    solver.setVerdictCache(cache_.get());
    fl::EvalOptions eo;
    eo.threads = 1;
    fl::IncrementalEngine eng(program_, *base_, &solver, eo);
    eng.reevaluate();
    baseState_ = eng.state();
  }

  std::string opLabel(size_t i) const override {
    return "request " + std::to_string(i % kRequests) + ": " +
           scripts_[i % kRequests];
  }

  size_t warmupOps() const override { return 5; }
  size_t countWindow() const override { return 16; }

  OpResult op(size_t i, Trace* trace) override {
    const size_t r = i % kRequests;
    const std::string id = "r" + std::to_string(i);
    OpResult res;
    std::string header;
    std::string payload;
    const double t0 = now();
    // The client's round trip; closed once the reply is in.
    std::optional<obs::Span> request(std::in_place, tracerOf(trace),
                                     "serve.request");
    server_->send("EVAL " + id + " " + scripts_[r] + "\nGO\n");
    if (!server_->readLine(header)) throw std::runtime_error("server closed");
    char rid[64] = {0};
    int exitCode = -1;
    size_t nbytes = 0;
    int fields = std::sscanf(header.c_str(), "RESULT %63s %d %zu", rid,
                             &exitCode, &nbytes);
    // No answer here comes near 64 MB; a larger count is a broken frame.
    if (fields != 3 || nbytes > (size_t{64} << 20)) {
      throw std::runtime_error("bad frame: " + header);
    }
    const bool complete = server_->readBytes(payload, nbytes);
    res.seconds = now() - t0;
    request.reset();
    if (!complete) throw std::runtime_error("short payload");

    if (trace != nullptr) {
      trace->count("serve.payload_bytes", static_cast<double>(nbytes));
      replay(r, *trace);
    }

    if (id != rid || exitCode != 0) {
      res.ok = false;
      res.error = "frame: " + header;
    } else if (payload.size() != answers_[r].bytes ||
               fnv1a(payload) != answers_[r].checksum) {
      res.ok = false;
      res.error = "payload differs from the single-scenario answer";
    }
    return res;
  }

  std::vector<LayerValue> layers(const Trace& t) const override {
    const double ops = static_cast<double>(std::max<size_t>(t.ops(), 1));
    auto ms = [&](const char* span) { return 1e3 * t.spanSeconds(span) / ops; };
    std::vector<double> parse = parseDbSeconds_;
    std::sort(parse.begin(), parse.end());
    std::vector<LayerValue> out = engineLayers(t);
    out.push_back({"faurelog.incremental.apply_ms", ms("incremental.apply")});
    out.push_back({"faurelog.textio.parse_edit_ms", ms("textio.parse_edit")});
    out.push_back({"faurelog.textio.parse_db_ms", 1e3 * parse[parse.size() / 2]});
    out.push_back({"faurelog.scenario.evaluate_ms", ms("scenario.evaluate")});
    out.push_back({"relational.clone_ms", ms("relational.clone")});
    out.push_back({"faurelog.textio.render_ms", ms("textio.render")});
    out.push_back({"serve.payload_bytes", t.perOp("serve.payload_bytes")});
    out.push_back({"serve.transport_ms",
                   ms("serve.request") - ms("scenario.evaluate")});
    return out;
  }

  double peakRssMb() override { return serverPeakMb_; }

  bool finish() override {
    if (server_ == nullptr) return true;
    serverPeakMb_ = server_->stop();
    const bool ok = server_->exitOk();
    server_.reset();
    if (!ok) std::fprintf(stderr, "faure serve did not exit 0\n");
    return ok;
  }

 private:
  fl::Scenario scenario(size_t r) const {
    std::string edits = scripts_[r];
    for (char& c : edits) {
      if (c == ';') c = '\n';
    }
    return {"r", edits};
  }

  /// In-process replay of request r, timed per layer. Root spans:
  /// scenario.evaluate (ScenarioSet::evaluate, the server's call), then
  /// serve.replay over its parts, replayed: relational.clone,
  /// textio.parse_edit, incremental.apply, incremental.reevaluate and
  /// textio.render.
  void replay(size_t r, Trace& trace) {
    obs::Tracer* tracer = trace.tracer();
    const fl::Scenario s = scenario(r);
    const InternerSample interner = InternerSample::take();
    fl::ScenarioOutcome out = timed(tracer, "scenario.evaluate",
                                    [&] { return set_->evaluate({s}).at(0); });
    countInterner(trace, interner);
    countInc(trace, fl::IncStats{}, out.inc);

    obs::Span root(tracer, "serve.replay");
    rel::Database fork =
        timed(tracer, "relational.clone", [&] { return base_->clone(); });
    std::vector<fl::Edit> edits = timed(tracer, "textio.parse_edit", [&] {
      return fl::parseEditScript(s.edits, fork);
    });
    smt::NativeSolver solver(base_->cvars());
    solver.setVerdictCache(cache_.get());
    const SolverSample before = SolverSample::take(solver, cache_.get());
    fl::EvalOptions eo;
    eo.threads = 1;
    fl::IncrementalEngine eng(program_, fork, &solver, eo);
    eng.adoptState(baseState_);
    std::string rendered;
    for (const fl::Edit& e : edits) {
      timed(tracer, "incremental.apply", [&] { eng.apply(e); });
      fl::EvalResult res = timed(tracer, "incremental.reevaluate",
                                 [&] { return eng.reevaluate(); });
      countEval(trace, res.stats);
      timed(tracer, "textio.render", [&] {
        for (const auto& [pred, table] : res.idb) {
          rendered += table.toString(&fork.cvars());
          rendered += '\n';
        }
      });
    }
    countSolver(trace, before, SolverSample::take(solver, cache_.get()));
  }

  static void writeFile(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary);
    out << text;
    if (!out) throw std::runtime_error("cannot write " + path);
  }

  Options opts_;
  Network net_;
  std::string dbPath_;
  std::string programPath_;
  std::vector<std::string> scripts_;
  std::vector<Answer> answers_;
  std::vector<double> parseDbSeconds_;
  std::unique_ptr<Server> server_;
  double serverPeakMb_ = 0.0;
  std::unique_ptr<fl::ScenarioSet> set_;
  std::unique_ptr<rel::Database> base_;
  dl::Program program_;
  std::unique_ptr<smt::VerdictCache> cache_;
  fl::IncrementalState baseState_;
};

}  // namespace

std::unique_ptr<Workload> makeServe(const Options& opts) {
  return std::make_unique<Serve>(opts);
}

}  // namespace perfbench
