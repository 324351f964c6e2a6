#include "util/fault_plan.hpp"

#include <cstdlib>

#include "util/rng.hpp"

namespace faure::util {

std::string_view faultKindText(FaultKind k) {
  switch (k) {
    case FaultKind::None:
      return "none";
    case FaultKind::Crash:
      return "crash";
    case FaultKind::Timeout:
      return "timeout";
    case FaultKind::SpuriousUnknown:
      return "spurious-unknown";
  }
  return "?";
}

namespace {

/// FNV-1a over the backend name: std::hash is implementation-defined,
/// and fault schedules must be identical across toolchains for a seed.
uint64_t fnv1a(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

void FaultPlan::configure(std::string backend, FaultSpec spec) {
  for (auto& [name, existing] : specs_) {
    if (name == backend) {
      existing = spec;
      return;
    }
  }
  specs_.emplace_back(std::move(backend), spec);
}

FaultKind FaultPlan::decide(std::string_view backend, uint64_t key,
                            uint32_t attempt) const {
  const FaultSpec* spec = nullptr;
  for (const auto& [name, s] : specs_) {
    if (name == backend) {
      spec = &s;
      break;
    }
  }
  if (spec == nullptr) return FaultKind::None;
  if (spec->onlyKey != 0 && key != spec->onlyKey) return FaultKind::None;
  // One uniform draw from a stateless mix of the identifying inputs.
  // Call order never enters, so the schedule is thread-invariant.
  uint64_t mix = seed_;
  mix ^= fnv1a(backend) * 0x9e3779b97f4a7c15ULL;
  mix ^= key * 0xc2b2ae3d27d4eb4fULL;
  if (spec->clearsOnRetry) mix ^= (uint64_t{attempt} + 1) * 0xff51afd7ed558ccdULL;
  double u = Rng(mix).uniform();
  if (u < spec->crash) return FaultKind::Crash;
  if (u < spec->crash + spec->timeout) return FaultKind::Timeout;
  if (u < spec->crash + spec->timeout + spec->spuriousUnknown) {
    return FaultKind::SpuriousUnknown;
  }
  return FaultKind::None;
}

std::shared_ptr<const FaultPlan> FaultPlan::defaultChaos(uint64_t seed) {
  auto plan = std::make_shared<FaultPlan>(seed);
  FaultSpec primary;
  primary.crash = 0.05;
  primary.timeout = 0.05;
  primary.spuriousUnknown = 0.10;
  primary.clearsOnRetry = true;
  plan->configure(std::string(kPrimaryTag), primary);
  return plan;
}

std::shared_ptr<const FaultPlan> FaultPlan::fromEnv() {
  const char* s = std::getenv("FAURE_CHAOS_SEED");
  if (s == nullptr || *s == '\0') return nullptr;
  uint64_t seed = std::strtoull(s, nullptr, 10);
  if (seed == 0) return nullptr;
  return defaultChaos(seed);
}

}  // namespace faure::util
