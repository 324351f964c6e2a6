// The synthetic two-team what-if network shared by the `whatif` and
// `serve` workloads: a forwarding chain 1..N+1 for flow f0 in which
// every seventh link of the first 42 is protected by an l<k>_ fast-
// reroute pair (as in Figure 1), plus an Acl relation with N/2 policy
// rows, under a program with recursive reachability units {R},
// {Deliver} and policy units {Open}, {Lockdown}. The same shape as the
// repository's incremental what-if bench; the Acl ports come from the
// benchmark seed.
#pragma once

#include <string>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

/// Protected links live only in this prefix of the chain, so condition
/// size stays bounded as the chain grows.
constexpr size_t kProtectedSpan = 42;

inline bool protectedLink(size_t i) { return i % 7 == 0 && i < kProtectedSpan; }

struct Network {
  size_t links = 0;
  std::string dbText;       // .fdb text
  std::string programText;  // .fl text
  std::vector<std::pair<std::string, int64_t>> acl;  // the Acl rows
};

inline Network makeNetwork(size_t links, uint64_t seed) {
  Network n;
  n.links = links;
  std::string& text = n.dbText;
  size_t prot = 0;
  for (size_t i = 0; i < links; ++i) {
    if (protectedLink(i)) text += "var l" + std::to_string(prot++) + "_ int 0 1\n";
  }
  text += "table F(flow sym, from int, to int)\n";
  text += "table Acl(app sym, port int)\n";
  size_t detour = links + 2;  // spare node ids for reroute pairs
  prot = 0;
  for (size_t i = 0; i < links; ++i) {
    const std::string a = std::to_string(i + 1);
    const std::string b = std::to_string(i + 2);
    if (protectedLink(i)) {
      const std::string v = "l" + std::to_string(prot++) + "_";
      const std::string d = std::to_string(detour++);
      text += "row F f0 " + a + " " + b + " | " + v + " = 1\n";
      text += "row F f0 " + a + " " + d + " | " + v + " = 0\n";
      text += "row F f0 " + d + " " + b + "\n";
    } else {
      text += "row F f0 " + a + " " + b + "\n";
    }
  }
  faure::util::Rng rng(0xac1dc0deULL ^ (seed * 0x9e3779b97f4a7c15ULL));
  for (size_t i = 0; i < links / 2; ++i) {
    n.acl.emplace_back("app" + std::to_string(i), rng.range(20, 9000));
    text += "row Acl " + n.acl.back().first + " " +
            std::to_string(n.acl.back().second) + "\n";
  }
  n.programText =
      "R(f,a,b) :- F(f,a,b).\n"
      "R(f,a,b) :- F(f,a,c), R(f,c,b).\n"
      "Deliver(f) :- R(f,1," + std::to_string(links + 1) + ").\n"
      "Open(app,p) :- Acl(app,p), p < 1024.\n"
      "Lockdown(app) :- Acl(app,p), !Open(app,p).\n";
  return n;
}

/// The unprotected links, in a seeded order.
inline std::vector<size_t> flapOrder(size_t links, uint64_t seed) {
  std::vector<size_t> out;
  for (size_t i = 0; i < links; ++i) {
    if (!protectedLink(i)) out.push_back(i);
  }
  faure::util::Rng rng(0xf1a9ULL + seed * 0x2545f4914f6cdd1dULL);
  for (size_t k = out.size(); k > 1; --k) {
    std::swap(out[k - 1], out[rng.below(k)]);
  }
  return out;
}

}  // namespace perfbench
