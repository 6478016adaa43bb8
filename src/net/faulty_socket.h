// Deterministic fault injection for the socket seam — the network
// sibling of storage/faulty_file.h.
//
// FaultySocket decorates any net::Socket and exposes a programmable
// SocketFaultPlan: fail the Nth connect/read/write/close with a chosen
// errno (ECONNRESET, EPIPE, ETIMEDOUT, ...), once or sticky, or fail
// ops at a seeded-random rate. On top of the error plans it models the
// shapes of network misbehaviour that error codes cannot: slow-byte
// throttling (at most N bytes move per call, with an optional per-call
// delay — a trickling peer), short writes (the kernel accepting less
// than offered), mid-frame stalls (after a byte budget, every further
// op reports EAGAIN — the peer went silent with a frame half sent),
// and abrupt RST teardown (SO_LINGER zero before close, so the peer
// sees ECONNRESET instead of orderly EOF).
//
// "Connect" faults are counted at construction: the wrapper sees a
// freshly connected socket, so a connect-class fault makes the socket
// born dead — every subsequent op fails with the injected errno,
// modelling a connection that RSTs before the first byte.
//
// Deterministic: the same plan over the same call sequence injects the
// same faults. Test-only. Not thread-safe — same ownership rule as the
// Socket it wraps (one thread at a time).

#ifndef LAXML_NET_FAULTY_SOCKET_H_
#define LAXML_NET_FAULTY_SOCKET_H_

#include <cstdint>
#include <memory>

#include "net/socket.h"

namespace laxml {
namespace net {

/// Operation classes a socket fault rule can target.
enum class SocketFaultOp : int {
  kConnect = 0,  ///< Checked once, at wrap time.
  kRead = 1,
  kWrite = 2,
  kClose = 3,  ///< An injected close fault turns Close() into an RST.
};
inline constexpr int kSocketFaultOpCount = 4;

const char* SocketFaultOpName(SocketFaultOp op);

/// A programmable schedule of injected socket failures, indexed by
/// operation class. Mirrors storage's FaultPlan, but speaks errno: the
/// seam sits below the Status layer, where the kernel would. Unlike
/// storage's, it also has a seeded-random mode.
struct SocketFaultPlan {
  struct Rule {
    uint64_t nth = 0;  ///< 1-based call index that fails; 0 = disabled.
    int error = 0;     ///< errno to inject (ECONNRESET, EPIPE, ...).
    bool sticky = false;  ///< Keep failing every call from `nth` on.
  };
  Rule rules[kSocketFaultOpCount];

  /// Seeded-random mode: each op of class `i` fails with probability
  /// random_permille[i] / 1000, driven by an xorshift stream seeded
  /// with `random_seed`. Random failures inject `random_error`.
  uint64_t random_seed = 0;
  uint32_t random_permille[kSocketFaultOpCount] = {};
  int random_error = 0;  ///< 0 = ECONNRESET.

  /// Slow-byte throttling: at most this many bytes move per Read /
  /// Write call (0 = unlimited). Short writes are `max_write_bytes`
  /// with a small value — the caller's partial-write loop must cope.
  size_t max_read_bytes = 0;
  size_t max_write_bytes = 0;
  /// Sleep this long before every Read / Write (a slow peer or path).
  uint32_t read_delay_us = 0;
  uint32_t write_delay_us = 0;

  /// Mid-frame stall: once this many total bytes have been read
  /// (written), every further Read (Write) reports EAGAIN after a
  /// short nap — the peer went silent with a frame in flight. The nap
  /// keeps a poll-readable fd from busy-spinning the caller; the
  /// caller's own deadline is what ends the stall. 0 = disabled.
  uint64_t stall_read_after_bytes = 0;
  uint64_t stall_write_after_bytes = 0;

  /// Schedules the `nth` call of class `op` to fail with errno `error`.
  void FailNth(SocketFaultOp op, uint64_t nth, int error,
               bool sticky = false);
};

/// Socket decorator that injects the plan. Construct via Wrap() (or
/// directly) inside a SocketWrapper hook.
class FaultySocket : public Socket {
 public:
  explicit FaultySocket(std::unique_ptr<Socket> base,
                        SocketFaultPlan plan = {});

  /// Convenience for SocketWrapper lambdas.
  static std::unique_ptr<FaultySocket> Wrap(std::unique_ptr<Socket> base,
                                            SocketFaultPlan plan = {}) {
    return std::make_unique<FaultySocket>(std::move(base), std::move(plan));
  }

  SocketFaultPlan& plan() { return plan_; }
  void FailNth(SocketFaultOp op, uint64_t nth, int error,
               bool sticky = false) {
    plan_.FailNth(op, nth, error, sticky);
  }

  // -- Introspection -------------------------------------------------
  uint64_t op_count(SocketFaultOp op) const {
    return op_counts_[static_cast<int>(op)];
  }
  uint64_t injected_faults() const { return injected_faults_; }
  uint64_t bytes_read() const { return bytes_read_; }
  uint64_t bytes_written() const { return bytes_written_; }
  bool born_dead() const { return born_dead_; }

  /// Abrupt teardown right now: SO_LINGER{1,0} + close, so the peer
  /// observes ECONNRESET. (An injected kClose fault does the same from
  /// inside Close().)
  void Reset();

  // -- Socket --------------------------------------------------------
  int fd() const override { return base_->fd(); }
  ssize_t Read(uint8_t* buf, size_t len, int* err) override;
  ssize_t Write(const uint8_t* buf, size_t len, int* err) override;
  void Close() override;

 private:
  /// Counts the op; returns the errno to inject, or 0 for none.
  int CheckFault(SocketFaultOp op);
  uint64_t NextRandom();

  std::unique_ptr<Socket> base_;
  SocketFaultPlan plan_;
  uint64_t rng_state_ = 0;
  uint64_t op_counts_[kSocketFaultOpCount] = {};
  uint64_t injected_faults_ = 0;
  uint64_t bytes_read_ = 0;
  uint64_t bytes_written_ = 0;
  bool born_dead_ = false;
  int born_dead_errno_ = 0;
};

}  // namespace net
}  // namespace laxml

#endif  // LAXML_NET_FAULTY_SOCKET_H_
