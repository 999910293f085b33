#pragma once

/// \file env.hpp
/// Shared integer environment-knob parsing with the suite's clamp-or-ignore
/// idiom (see tests/test_net_warning.cpp for the contract):
///
///  * unset / empty          -> fallback, silently;
///  * a number out of range  -> clamped to the nearest bound, with a loud
///                              once-per-variable "clamping NAME=..."
///                              warning naming the valid range;
///  * unparsable garbage     -> ignored in favor of the fallback, with a
///                              loud once-per-variable "ignoring NAME=..."
///                              warning.
///
/// Every subsystem that reads a numeric knob (core/machine.cpp for DPF_VPS
/// and DPF_WORKERS) goes through this one helper so invalid values are
/// rejected identically everywhere, and so the warning fires once per knob
/// per process rather than once per read site.

namespace dpf::env {

/// Integer knob in [lo, hi]. Clamp-or-ignore semantics as above; the
/// loud-once latch is keyed by the variable name's value, so two call
/// sites reading the same knob share one warning.
[[nodiscard]] int int_or(const char* name, int lo, int hi, int fallback);

}  // namespace dpf::env
