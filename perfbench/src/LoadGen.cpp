//===- perfbench/src/LoadGen.cpp - Open-loop request generator ----------===//
//
// Part of the differential-register-allocation reproduction library.
//
//===----------------------------------------------------------------------===//

#include "LoadGen.h"

#include "driver/Metrics.h"
#include "server/Protocol.h"

#include <cerrno>
#include <deque>

#include <fcntl.h>
#include <poll.h>
#include <time.h>
#include <sys/socket.h>

using namespace dra;

namespace perfbench {

namespace {

// Frames are laid out as in server/Protocol.h ("DRAS", LE32 length,
// payload); readFrame/writeFrame block, so this loop frames bytes itself.
void putLe32(std::string &S, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    S.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

uint32_t getLe32(const std::string &S, size_t At) {
  uint32_t V = 0;
  for (int I = 0; I != 4; ++I)
    V |= uint32_t(static_cast<unsigned char>(S[At + I])) << (8 * I);
  return V;
}

constexpr uint64_t SpinNs = 2'000'000;

struct Conn {
  int Fd = -1;
  bool Dead = false;
  std::string Out; ///< Framed bytes not yet accepted by the socket.
  size_t OutAt = 0;
  std::string In;  ///< Received bytes not yet parsed into frames.
  std::deque<size_t> Pending; ///< Request indices, in send order.
};

} // namespace

std::vector<Outcome> runOpenLoop(const std::vector<int> &Fds,
                                 const std::vector<std::string> &Payloads,
                                 const std::vector<uint64_t> &DueOffsetNs,
                                 uint64_t TimeoutNs) {
  const size_t N = Payloads.size();
  std::vector<Outcome> Res(N);
  std::vector<Conn> Conns(Fds.size());
  for (size_t C = 0; C != Fds.size(); ++C) {
    Conns[C].Fd = Fds[C];
    fcntl(Fds[C], F_SETFL, fcntl(Fds[C], F_GETFL) | O_NONBLOCK);
  }
  const uint64_t Start = steadyClockNs();
  for (size_t I = 0; I != N; ++I)
    Res[I].DueNs = Start + DueOffsetNs[I];
  const uint64_t Deadline =
      (N ? Res[N - 1].DueNs : Start) + TimeoutNs;

  auto Abandon = [&](Conn &C) {
    C.Dead = true;
    C.Pending.clear(); // their Outcomes stay unanswered
  };

  size_t Next = 0, Done = 0, Lost = 0;
  std::vector<pollfd> Pfds(Conns.size());
  char Buf[1 << 16];
  while (Done + Lost != N) {
    uint64_t Now = steadyClockNs();
    if (Now >= Deadline)
      break;
    // Send everything that is due, each on the least-loaded connection.
    while (Next != N && Res[Next].DueNs <= Now) {
      Conn *Best = nullptr;
      for (Conn &C : Conns)
        if (!C.Dead && (!Best || C.Pending.size() < Best->Pending.size()))
          Best = &C;
      if (!Best) { // every connection failed
        Lost += N - Next;
        Next = N;
        break;
      }
      putLe32(Best->Out, FrameMagic);
      putLe32(Best->Out, static_cast<uint32_t>(Payloads[Next].size()));
      Best->Out += Payloads[Next];
      Best->Pending.push_back(Next);
      Res[Next].SendNs = Now;
      Res[Next].Conn = static_cast<unsigned>(Best - Conns.data());
      ++Next;
    }
    // Push queued bytes; never block.
    for (Conn &C : Conns) {
      while (!C.Dead && C.OutAt != C.Out.size()) {
        ssize_t W = ::send(C.Fd, C.Out.data() + C.OutAt,
                           C.Out.size() - C.OutAt, MSG_NOSIGNAL);
        if (W > 0) {
          C.OutAt += static_cast<size_t>(W);
        } else if (W < 0 && errno == EINTR) {
          continue;
        } else {
          if (W < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
          Lost += C.Pending.size();
          Abandon(C);
        }
      }
      if (C.OutAt == C.Out.size()) {
        C.Out.clear();
        C.OutAt = 0;
      }
    }
    // Wait for a reply, writable space or the next due time. Within
    // SpinNs of the due time the loop busy-polls instead of sleeping: on
    // a virtual machine, waking an idle vCPU (for the timer or a reply)
    // costs tens of microseconds to milliseconds, which would land in the
    // lag and in every latency of a fast request stream.
    for (size_t I = 0; I != Conns.size(); ++I) {
      Conn &C = Conns[I];
      Pfds[I].fd = C.Dead ? -1 : C.Fd;
      Pfds[I].events = short(POLLIN | (C.Out.empty() ? 0 : POLLOUT));
      Pfds[I].revents = 0;
    }
    const uint64_t Wake = Next != N ? Res[Next].DueNs : Deadline;
    Now = steadyClockNs();
    const uint64_t SleepNs = Wake > Now + SpinNs ? Wake - Now - SpinNs : 0;
    const timespec Ts{static_cast<time_t>(SleepNs / 1000000000u),
                      static_cast<long>(SleepNs % 1000000000u)};
    if (ppoll(Pfds.data(), Pfds.size(), &Ts, nullptr) < 0 && errno != EINTR)
      break;
    for (size_t I = 0; I != Conns.size(); ++I) {
      Conn &C = Conns[I];
      if (C.Dead || !(Pfds[I].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      for (;;) {
        ssize_t R = ::recv(C.Fd, Buf, sizeof Buf, 0);
        if (R > 0) {
          C.In.append(Buf, static_cast<size_t>(R));
          continue;
        }
        if (R < 0 && errno == EINTR)
          continue;
        if (R < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
          break;
        // EOF or error: whatever is outstanding here is lost.
        Lost += C.Pending.size();
        Abandon(C);
        break;
      }
      const uint64_t At = steadyClockNs();
      // Peel complete frames; replies arrive in send order.
      size_t Pos = 0;
      while (!C.Dead && C.In.size() - Pos >= 8) {
        if (getLe32(C.In, Pos) != FrameMagic || C.Pending.empty()) {
          Lost += C.Pending.size();
          Abandon(C);
          break;
        }
        size_t Len = getLe32(C.In, Pos + 4);
        if (C.In.size() - Pos - 8 < Len)
          break;
        Outcome &O = Res[C.Pending.front()];
        C.Pending.pop_front();
        O.Response = C.In.substr(Pos + 8, Len);
        O.DoneNs = At;
        O.Answered = true;
        ++Done;
        Pos += 8 + Len;
      }
      C.In.erase(0, Pos);
    }
  }
  return Res;
}

} // namespace perfbench
