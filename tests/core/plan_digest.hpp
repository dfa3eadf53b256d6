// An order-sensitive digest of plans, shared by the planner's and the
// many-to-one module's pinned-digest tests.
#pragma once

#include <bit>
#include <string>
#include <vector>

#include "core/planner.hpp"
#include "core/verify.hpp"

namespace hj {

/// Each plan string and all 19 fields of its certificate, one 64-bit word
/// at a time.
struct PlanDigest {
  u64 h = 0xcbf29ce484222325ull;
  void add(u64 w) {
    h = (h ^ w) * 0x100000001b3ull;
    h ^= h >> 32;
  }
  void add(double x) { add(std::bit_cast<u64>(x)); }
  void add(const std::string& s) {
    add(static_cast<u64>(s.size()));
    for (const char ch : s) add(u64{static_cast<unsigned char>(ch)});
  }
  void add(const std::vector<u64>& v) {
    add(static_cast<u64>(v.size()));
    for (const u64 x : v) add(x);
  }
  void report(const VerifyReport& r) {
    add(u64{r.valid});
    add(static_cast<u64>(r.errors.size()));
    for (const std::string& e : r.errors) add(e);
    add(r.guest_nodes);
    add(r.guest_edges);
    add(u64{r.host_dim});
    add(r.expansion);
    add(u64{r.minimal_expansion});
    add(u64{r.dilation});
    add(r.avg_dilation);
    add(r.dilation_histogram);
    add(r.wirelength);
    add(u64{r.bounds.host_dim});
    add(u64{r.bounds.dilation});
    add(u64{r.bounds.congestion});
    add(r.bounds.wirelength);
    add(r.bounds.load);
    add(u64{r.congestion});
    add(r.avg_congestion);
    add(r.congestion_histogram);
    add(r.load_factor);
    add(u64{r.fault_free});
    add(r.faulted_nodes);
    add(r.faulted_paths);
  }
  void plan(const PlanResult& p) {
    add(p.plan);
    report(p.report);
  }
};

}  // namespace hj
