#include "common/queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <thread>

#include "common/thread_pool.hpp"

namespace avgpipe {
namespace {

TEST(ChannelTest, SendRecvFifo) {
  Channel<int> ch(8);
  ch.send(1);
  ch.send(2);
  EXPECT_EQ(ch.recv().value(), 1);
  EXPECT_EQ(ch.recv().value(), 2);
}

TEST(ChannelTest, CloseDrainsRemainingItems) {
  Channel<int> ch(4);
  ch.send(7);
  ch.close();
  EXPECT_EQ(ch.recv().value(), 7);
  EXPECT_FALSE(ch.recv().has_value());
}

TEST(ChannelTest, SendAfterCloseFails) {
  Channel<int> ch(4);
  ch.close();
  EXPECT_FALSE(ch.send(1));
}

TEST(ChannelTest, CloseWakesBlockedReceiver) {
  Channel<int> ch(1);
  std::thread t([&] {
    auto v = ch.recv();
    EXPECT_FALSE(v.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ch.close();
  t.join();
}

TEST(ChannelTest, BackpressureBlocksSenderUntilRecv) {
  Channel<int> ch(1);
  ch.send(1);
  std::atomic<bool> second_sent{false};
  std::thread t([&] {
    ch.send(2);
    second_sent = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_sent.load());
  EXPECT_EQ(ch.recv().value(), 1);
  t.join();
  EXPECT_TRUE(second_sent.load());
  EXPECT_EQ(ch.recv().value(), 2);
}

TEST(ChannelTest, ZeroCapacityThrows) {
  EXPECT_THROW(Channel<int>(0), Error);
}

TEST(ChannelTest, CloseWakesBlockedProducer) {
  // A producer blocked on a full channel must be released by close() and see
  // the send fail — the shutdown path of a failed pipeline stage.
  Channel<int> ch(1);
  ch.send(1);
  std::atomic<bool> send_result{true};
  std::thread t([&] { send_result = ch.send(2); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ch.close();
  t.join();
  EXPECT_FALSE(send_result.load());
  EXPECT_EQ(ch.recv().value(), 1);  // the buffered item still drains
  EXPECT_FALSE(ch.recv().has_value());
}

TEST(ChannelTest, CloseIsIdempotent) {
  Channel<int> ch(1);
  ch.send(3);
  ch.close();
  ch.close();
  EXPECT_FALSE(ch.send(4));
  EXPECT_EQ(ch.recv().value(), 3);
  EXPECT_FALSE(ch.recv().has_value());
}

TEST(ChannelStressTest, MpmcDeliversEverythingExactlyOnce) {
  Channel<int> ch(16);
  constexpr int kProducers = 4, kConsumers = 4, kPerProducer = 500;
  std::atomic<long> sum{0};
  std::atomic<int> received{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(ch.send(p * kPerProducer + i));
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (auto v = ch.recv()) {
        sum += *v;
        ++received;
      }
    });
  }
  // Join producers, then close so consumers drain and exit.
  for (int p = 0; p < kProducers; ++p) threads[static_cast<std::size_t>(p)].join();
  ch.close();
  for (std::size_t c = kProducers; c < threads.size(); ++c) threads[c].join();

  const long n = kProducers * kPerProducer;
  EXPECT_EQ(received.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// -- SpscChannel: the lock-free stage-to-stage link ---------------------------------

TEST(SpscChannelTest, SendRecvFifo) {
  SpscChannel<int> ch(8);
  EXPECT_TRUE(ch.send(1));
  EXPECT_TRUE(ch.send(2));
  EXPECT_EQ(ch.recv().value(), 1);
  EXPECT_EQ(ch.recv().value(), 2);
}

TEST(SpscChannelTest, SizeCountsBufferedItemsAcrossTheRing) {
  SpscChannel<int> ch(2);
  EXPECT_EQ(ch.capacity(), 2u);
  EXPECT_EQ(ch.size(), 0u);
  EXPECT_TRUE(ch.send(1));
  EXPECT_TRUE(ch.send(2));
  EXPECT_EQ(ch.size(), 2u);  // full
  EXPECT_EQ(ch.recv().value(), 1);
  EXPECT_EQ(ch.size(), 1u);
  EXPECT_TRUE(ch.send(3));  // wraps onto the freed slot
  EXPECT_EQ(ch.size(), 2u);
  EXPECT_EQ(ch.recv().value(), 2);
  EXPECT_EQ(ch.recv().value(), 3);
  EXPECT_EQ(ch.size(), 0u);
}

TEST(SpscChannelTest, CloseDrainsRemainingItems) {
  SpscChannel<int> ch(4);
  ch.send(7);
  ch.send(8);
  ch.close();
  EXPECT_FALSE(ch.send(9));
  EXPECT_EQ(ch.recv().value(), 7);
  EXPECT_EQ(ch.recv().value(), 8);
  EXPECT_FALSE(ch.recv().has_value());
}

TEST(SpscChannelTest, CloseWakesBlockedReceiverAndProducer) {
  SpscChannel<int> ch(1);
  std::thread receiver([&] { EXPECT_FALSE(ch.recv().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ch.close();
  receiver.join();

  SpscChannel<int> full(1);
  full.send(1);
  std::thread producer([&] { EXPECT_FALSE(full.send(2)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  full.close();
  producer.join();
}

TEST(SpscChannelTest, TimedOpsTimeOutAndDeliver) {
  SpscChannel<int> ch(1);
  int out = 0;
  EXPECT_EQ(ch.recv_for(&out, 0.01), ChannelStatus::kTimeout);
  ch.send(5);
  EXPECT_EQ(ch.recv_for(&out, 0.01), ChannelStatus::kOk);
  EXPECT_EQ(out, 5);
}

TEST(SpscChannelTest, MoveOnlyPayloadTransfersOwnership) {
  // The pipeline's ActMessage/GradMessage are move-only; the channel must
  // never require a copy.
  SpscChannel<std::unique_ptr<int>> ch(2);
  ch.send(std::make_unique<int>(42));
  auto out = ch.recv();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(**out, 42);
}

TEST(SpscChannelStressTest, DeliversEverythingExactlyOnceInOrder) {
  // One producer, one consumer, tiny capacity: maximal contention on the
  // park/unpark handshake. Ordering must be exact (FIFO), delivery exact-
  // once — TSan covers the memory-order claims.
  SpscChannel<int> ch(2);
  constexpr int kItems = 20000;
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) ASSERT_TRUE(ch.send(i));
    ch.close();
  });
  int expected = 0;
  while (auto v = ch.recv()) {
    ASSERT_EQ(*v, expected);
    ++expected;
  }
  producer.join();
  EXPECT_EQ(expected, kItems);
}

TEST(SpscChannelStressTest, TimedRecvContentionDeliversAll) {
  // Consumer polls with short timeouts (the fault-tolerant recv path) while
  // the producer free-runs: no message may be lost or duplicated.
  SpscChannel<int> ch(4);
  constexpr int kItems = 5000;
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) ASSERT_TRUE(ch.send(i));
    ch.close();
  });
  int expected = 0;
  for (;;) {
    int out = -1;
    const auto status = ch.recv_for(&out, 0.0005);
    if (status == ChannelStatus::kClosed) break;
    if (status == ChannelStatus::kOk) {
      ASSERT_EQ(out, expected);
      ++expected;
    }
  }
  producer.join();
  EXPECT_EQ(expected, kItems);
}

TEST(SpscChannelTest, CloseWakesBlockedTimedReceiverPromptly) {
  // Regression for the recovery path: the runtime's robust_recv parks in
  // recv_for with a long deadline; a teardown close() must wake it with
  // kClosed immediately, not leave it to ride out the timeout (which turned
  // pipeline teardown into a deadline-long stall).
  SpscChannel<int> ch(1);
  ChannelStatus status = ChannelStatus::kOk;
  std::thread receiver([&] {
    int out = 0;
    status = ch.recv_for(&out, /*timeout=*/30.0);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto t0 = std::chrono::steady_clock::now();
  ch.close();
  receiver.join();
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(status, ChannelStatus::kClosed);
  EXPECT_LT(std::chrono::duration<double>(waited).count(), 5.0);
}

TEST(SpscChannelTest, TimedRecvDrainsPendingItemsThenReportsClosed) {
  // Deterministic end-of-stream: items buffered before close() are still
  // delivered (kOk, in order), and only then does recv_for report kClosed.
  SpscChannel<int> ch(4);
  ch.send(1);
  ch.send(2);
  ch.send(3);
  ch.close();
  int out = 0;
  for (int expected = 1; expected <= 3; ++expected) {
    ASSERT_EQ(ch.recv_for(&out, 0.01), ChannelStatus::kOk);
    EXPECT_EQ(out, expected);
  }
  EXPECT_EQ(ch.recv_for(&out, 0.01), ChannelStatus::kClosed);
}

TEST(SpscChannelTest, ClosedAndDrainedIsStickyAcrossRecvOps) {
  // Once any recv-side op has observed closed-and-drained, every later
  // recv-side op must agree — kClosed (never kTimeout), nullopt — so a
  // recovery drain loop's end-of-stream point is scheduling-independent.
  SpscChannel<int> ch(2);
  ch.send(9);
  ch.close();
  EXPECT_EQ(ch.recv().value(), 9);
  EXPECT_FALSE(ch.recv().has_value());  // first kClosed observation
  int out = 0;
  EXPECT_EQ(ch.recv_for(&out, 0.01), ChannelStatus::kClosed);
  EXPECT_EQ(ch.recv_for(&out, 0.0), ChannelStatus::kClosed);
  EXPECT_FALSE(ch.recv().has_value());
}

TEST(ChannelStressTest, SpinPathPingPong) {
  // Two channels, two threads bouncing a token: exercises the spin-then-park
  // fast path (the reply usually lands within the spin window on SMP, and
  // within the yield window on a uniprocessor).
  Channel<int> ping(1), pong(1);
  constexpr int kRounds = 5000;
  std::thread echo([&] {
    while (auto v = ping.recv()) pong.send(*v + 1);
    pong.close();
  });
  for (int i = 0; i < kRounds; ++i) {
    ping.send(i);
    auto r = pong.recv();
    ASSERT_TRUE(r.has_value());
    ASSERT_EQ(*r, i + 1);
  }
  ping.close();
  echo.join();
  EXPECT_FALSE(pong.recv().has_value());
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(0, 100, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i]++;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SpscChannelTest, CountsSpinsAndParksOnSlowPath) {
  // A timed recv on an empty channel must walk the whole slow path: one
  // spin-window entry, then a condvar park until the deadline. Deterministic
  // (no producer involved), so exact lower bounds hold.
  SpscChannel<int> ch(4);
  EXPECT_EQ(ch.spin_waits(), 0u);
  EXPECT_EQ(ch.parks(), 0u);
  int out = 0;
  EXPECT_EQ(ch.recv_for(&out, 0.01), ChannelStatus::kTimeout);
  EXPECT_GE(ch.spin_waits(), 1u);
  EXPECT_GE(ch.parks(), 1u);
  // The fast path stays counter-free: a ready item never spins or parks.
  const std::uint64_t spins = ch.spin_waits();
  const std::uint64_t parks = ch.parks();
  ASSERT_TRUE(ch.send(7));
  EXPECT_EQ(ch.recv_for(&out, 0.01), ChannelStatus::kOk);
  EXPECT_EQ(out, 7);
  EXPECT_EQ(ch.spin_waits(), spins);
  EXPECT_EQ(ch.parks(), parks);
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, SubmitRunsTask) {
  // counter/m/cv must outlive the pool: the pool's destructor joins the
  // workers, so declaring it last guarantees no worker can still be touching
  // cv when cv is destroyed.
  std::atomic<int> counter{0};
  common::Mutex m;
  common::CondVar cv;
  ThreadPool pool(2);
  for (int i = 0; i < 10; ++i) {
    pool.submit([&] {
      if (++counter == 10) {
        common::MutexLock lock(m);
        cv.notify_one();
      }
    });
  }
  common::MutexLock lock(m);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (counter != 10) {
    if (cv.wait_until(m, lock, deadline) == std::cv_status::timeout) break;
  }
  EXPECT_EQ(counter.load(), 10);
}

}  // namespace
}  // namespace avgpipe
