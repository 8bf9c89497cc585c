/// Helper process for ckpt_kill_test: commits checkpoints through the
/// asynchronous writer in an endless loop until it is killed.
///
/// Usage: ckpt_kill_child DIR
///
/// Resumes at the step after DIR's newest committed entry, commits that
/// step synchronously, prints "ready" on stdout, then loops submitting the
/// next step's state (each submit waits for the previous commit).
/// A SIGKILL can therefore land anywhere in encode, CRC, the tmp write,
/// fsync, rename, the directory fsync, the manifest rewrite or the prune.

#include <cstdio>
#include <exception>

#include "ckpt/checkpoint.hpp"
#include "ckpt/state.hpp"
#include "kill_state.hpp"

int main(int argc, char** argv) {
  using namespace avgpipe;
  if (argc != 2) {
    std::fprintf(stderr, "usage: ckpt_kill_child DIR\n");
    return 3;
  }
  try {
    ckpt::CheckpointDir dir(argv[1]);
    const auto entries = dir.entries();
    long step = entries.empty() ? 1 : entries.back().step + 1;
    dir.write(kill_test::kill_state(step));
    std::printf("ready\n");
    std::fflush(stdout);
    for (;;) dir.submit(kill_test::kill_state(++step));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ckpt_kill_child: %s\n", e.what());
    return 1;
  }
}
