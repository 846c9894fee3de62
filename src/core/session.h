// Forwarder for perfbench/scan.cc, which still drives probes through this
// class; it goes with the next benchmark change. Each method runs the
// fresh-connection probe of probes.h, as the scan does.
#pragma once

#include "core/probes.h"

namespace h2r::core {

class ProbeSession {
 public:
  struct Options {
    int hpack_h = 8;  ///< H of Equation 1
    bool expect_hpack = true;  ///< unread; perfbench still sets it
  };

  ProbeSession(const Target& target, Options options)
      : target_(target), options_(options) {}

  SettingsProbeResult settings() { return probe_settings(target_); }
  PriorityProbeResult priority() { return probe_priority_mechanism(target_); }
  SelfDependencyProbeResult self_dependency() {
    return probe_self_dependency(target_);
  }
  PushProbeResult push() { return probe_server_push(target_); }
  HpackProbeResult hpack_ratio() {
    return probe_hpack_ratio(target_, options_.hpack_h);
  }

 private:
  const Target& target_;
  Options options_;
};

}  // namespace h2r::core
