/// Real process death against the checkpoint commit protocol.
///
/// A child process (ckpt_kill_child) commits checkpoints through the
/// asynchronous writer in a loop; the parent SIGKILLs it after a seeded
/// random delay, kKills times, one child at a time. After every kill
/// a fresh CheckpointDir must load the newest entry cleanly (no fallback,
/// whole-file CRC equal to the manifest's, every value the one its step
/// implies), the newest step never goes backwards across kills, and the
/// manifest never names a leftover `.tmp`. AVGPIPE_KILL_SEED picks the
/// delay sequence (default 1).

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/state.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "kill_state.hpp"

extern char** environ;

namespace avgpipe {
namespace {

constexpr int kKills = 20;

struct TempDir {
  TempDir() {
    std::string tmpl = "/tmp/avgpipe_ckpt_kill_XXXXXX";
    const char* made = ::mkdtemp(tmpl.data());
    EXPECT_NE(made, nullptr);
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

/// The parent's environment with halt_on_error added to TSAN_OPTIONS, so a
/// race the child's TSan build reports ends the child before the kill and
/// fails the test instead of scrolling past.
std::vector<std::string> child_environment() {
  std::vector<std::string> env;
  std::string tsan = "TSAN_OPTIONS=halt_on_error=1";
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string var = *e;
    if (var.rfind("TSAN_OPTIONS=", 0) == 0) {
      tsan.append(" ").append(var, 13);
    } else {
      env.push_back(var);
    }
  }
  env.push_back(tsan);
  return env;
}

struct Child {
  pid_t pid = -1;
  int out = -1;  ///< read end of the child's stdout
};

/// fork + exec ckpt_kill_child on `dir`; the argv and envp arrays are built
/// before the fork, so the child only calls async-signal-safe functions.
Child spawn(const std::string& dir, const std::vector<std::string>& env) {
  std::string exe = AVGPIPE_KILL_CHILD;
  std::string arg = dir;
  std::vector<char*> argv = {exe.data(), arg.data(), nullptr};
  std::vector<std::string> env_copy = env;
  std::vector<char*> envp;
  for (auto& e : env_copy) envp.push_back(e.data());
  envp.push_back(nullptr);
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  Child c;
  c.pid = ::fork();
  if (c.pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execve(exe.c_str(), argv.data(), envp.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  c.out = fds[0];
  return c;
}

/// Block until the child printed its ready line; false if it died first.
bool wait_ready(const Child& c) {
  char ch = 0;
  for (;;) {
    const ssize_t n = ::read(c.out, &ch, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    if (ch == '\n') return true;
  }
}

TEST(CkptKillTest, SigkilledWriterLeavesALoadableMonotoneDirectory) {
  ASSERT_TRUE(std::filesystem::exists(AVGPIPE_KILL_CHILD))
      << AVGPIPE_KILL_CHILD;
  const long seed = common::env_int("AVGPIPE_KILL_SEED", 1);
  Rng rng(static_cast<std::uint64_t>(seed));
  const std::vector<std::string> env = child_environment();
  TempDir tmp;
  const std::string dir = tmp.path + "/ckpts";

  long newest = 0;
  int kills_leaving_tmp = 0;
  for (int kill = 0; kill < kKills; ++kill) {
    const auto start = std::chrono::steady_clock::now();
    const Child child = spawn(dir, env);
    ASSERT_GT(child.pid, 0);
    const bool ready = wait_ready(child);
    if (ready) {
      // Start-up includes one synchronous commit, so a delay of up to three
      // start-ups spans a few commits of the loop on any build (sanitizer
      // builds run several times slower).
      const auto startup = std::chrono::steady_clock::now() - start;
      std::this_thread::sleep_for(rng.uniform() * 3 * startup);
      ::kill(child.pid, SIGKILL);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child.pid, &status, 0), child.pid);
    ::close(child.out);
    ASSERT_TRUE(ready && WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "kill " << kill << ": the child ended on its own (status "
        << status << ") before the SIGKILL";

    // A fresh directory object in a process that never submitted: only the
    // bytes on disk speak.
    ckpt::CheckpointDir reader(dir);
    ckpt::TrainState state;
    const auto res = reader.load_latest(&state);
    ASSERT_TRUE(res.ok) << "kill " << kill << ": " << res.error;
    EXPECT_EQ(res.fallbacks, 0) << "kill " << kill;
    EXPECT_GE(res.step, newest) << "kill " << kill << ": newest step went back";
    // The file must hold the step its manifest entry names: the whole-file
    // CRC alone cannot tell two valid files of one layout apart.
    EXPECT_EQ(state.step, res.step) << "kill " << kill;
    EXPECT_TRUE(kill_test::is_kill_state(state))
        << "kill " << kill << ": step " << res.step << " holds other values";
    const auto entries = reader.entries();
    ASSERT_FALSE(entries.empty());
    EXPECT_EQ(entries.back().step, res.step);
    for (const auto& e : entries) {
      EXPECT_NE(std::filesystem::path(e.file).extension(), ".tmp") << e.file;
      const auto info = ckpt::CheckpointReader::inspect(dir + "/" + e.file);
      EXPECT_TRUE(info.ok) << e.file << ": " << info.error;
      EXPECT_EQ(info.file_crc, e.crc) << e.file;
      EXPECT_EQ(info.bytes, e.bytes) << e.file;
    }
    for (const auto& f : std::filesystem::directory_iterator(dir)) {
      if (f.path().extension() == ".tmp") {
        ++kills_leaving_tmp;  // the kill landed inside a commit
        break;
      }
    }
    newest = res.step;
  }
  // Each child commits at least its ready save, so 20 kills mean at least
  // 20 committed steps.
  EXPECT_GE(newest, kKills);
  std::printf("seed %ld: %d kills, newest step %ld, %d left a .tmp behind\n",
              seed, kKills, newest, kills_leaving_tmp);
}

}  // namespace
}  // namespace avgpipe
