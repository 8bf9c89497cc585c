#pragma once

/// \file kill_state.hpp
/// The checkpoint state ckpt_kill_child commits and ckpt_kill_test checks
/// after every SIGKILL: a few MB whose every value is a function of the
/// step, so a restored file proves both its CRC and that it holds the step
/// its manifest entry names.

#include <cstddef>
#include <string>

#include "ckpt/state.hpp"

namespace avgpipe::kill_test {

/// The value of element `i` of tensor `t` in the state of `step`.
inline double kill_value(long step, std::size_t t, std::size_t i) {
  return static_cast<double>(step) * 1e-3 + static_cast<double>(t) +
         static_cast<double>(i) * 0x1p-20;
}

/// The state of `step`.
inline ckpt::TrainState kill_state(long step) {
  constexpr std::size_t kTensors = 4, kRows = 256, kCols = 256;
  ckpt::TrainState state;
  state.step = step;
  state.alpha = 0.5;
  for (std::size_t t = 0; t < kTensors; ++t) {
    tensor::Tensor x({kRows, kCols});
    auto data = x.data();
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = kill_value(step, t, i);
    }
    state.reference.push_back(x);
  }
  state.pipelines.resize(1);
  state.pipelines[0].params = state.reference;  // shares storage: same values
  state.rng_streams = {{"step", std::to_string(step)}};
  return state;
}

/// Whether `state` is exactly the state of its own step.
inline bool is_kill_state(const ckpt::TrainState& state) {
  const ckpt::TrainState expected = kill_state(state.step);
  if (state.reference.size() != expected.reference.size() ||
      state.pipelines.size() != 1 ||
      state.pipelines[0].params.size() != expected.reference.size() ||
      state.rng_streams != expected.rng_streams) {
    return false;
  }
  for (std::size_t t = 0; t < expected.reference.size(); ++t) {
    const auto want = expected.reference[t].data();
    const auto ref = state.reference[t].data();
    const auto par = state.pipelines[0].params[t].data();
    if (ref.size() != want.size() || par.size() != want.size()) return false;
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (ref[i] != want[i] || par[i] != want[i]) return false;
    }
  }
  return true;
}

}  // namespace avgpipe::kill_test
