/**
 * @file
 * Component-kernel tests: Port arbitration determinism, TokenPool
 * FIFO wake order, bounded-buffer backpressure, the banked memory's
 * conflict accounting, the peak-queue and peak-in-service slack
 * counters trace runs keep, and the division guards on every
 * utilization and mean-queue report.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "sim/banked_memory.hh"
#include "sim/component.hh"
#include "sim/event_queue.hh"
#include "sim/transfer_channels.hh"

namespace qmh {
namespace sim {
namespace {

TEST(SimPort, UncontendedRequestIsNeverAConflict)
{
    EventQueue eq;
    Component owner(eq, "memory");
    Port port(owner, "p0", /*width=*/2, /*buffer_limit=*/4);

    int done = 0;
    eq.schedule(0, [&]() {
        port.submit(10, [&]() { ++done; });
        port.submit(10, [&]() { ++done; });
    });
    eq.run();

    EXPECT_EQ(done, 2);
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_EQ(port.stats().requests, 2u);
    EXPECT_EQ(port.stats().served, 2u);
    EXPECT_EQ(port.stats().conflict_stalls, 0u);
    EXPECT_EQ(port.stats().stall_ticks, 0u);
    EXPECT_EQ(port.stats().buffer_overflows, 0u);
    // Both requests went straight into service: the queue never held
    // a waiting request, so peak occupancy is zero by construction.
    EXPECT_EQ(port.stats().peak_queue, 0u);
    EXPECT_EQ(port.stats().busy_ticks, 20u);
    EXPECT_DOUBLE_EQ(port.utilization(10), 1.0);
}

TEST(SimPort, SameTickRequestsGrantInSubmissionOrder)
{
    // Deterministic FIFO arbitration: four same-tick submissions to a
    // width-1 port complete in exactly submission order, with the
    // delayed three counted as conflict stalls. No seed, no hash
    // order, nothing to vary between runs or hosts.
    EventQueue eq;
    Component owner(eq, "memory");
    Port port(owner, "p0", /*width=*/1, /*buffer_limit=*/8);

    std::vector<int> order;
    std::vector<Tick> completed;
    eq.schedule(0, [&]() {
        for (int id = 0; id < 4; ++id)
            port.submit(10, [&, id]() {
                order.push_back(id);
                completed.push_back(eq.now());
            });
    });
    eq.run();

    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(completed, (std::vector<Tick>{10, 20, 30, 40}));
    EXPECT_EQ(port.stats().conflict_stalls, 3u);
    // Waits of 10, 20 and 30 ticks for requests 1..3.
    EXPECT_EQ(port.stats().stall_ticks, 60u);
    EXPECT_EQ(port.stats().peak_queue, 3u);
    EXPECT_GT(port.meanQueue(40), 0.0);
}

TEST(SimPort, EveryMissedFastPathRaisesPeakQueue)
{
    // peak_queue == 0 is the slack certificate trace runs keep: it
    // must hold exactly when every submission went straight into
    // service. The hard case misses the fast path with zero wait: at
    // tick 10 a submission finds the one server still held by a
    // request whose completion is pending at that same tick. It
    // starts at tick 10 after all, so conflict_stalls stays 0 — which
    // is why the certificate reads peak_queue, not conflict_stalls.
    EventQueue eq;
    Component owner(eq, "memory");
    Port port(owner, "p0", /*width=*/1, /*buffer_limit=*/4);
    Tick second_done = 0;
    // Scheduled first, so it dispatches before the completion event
    // the tick-0 submission schedules for tick 10.
    eq.schedule(10, [&]() {
        port.submit(10, [&]() { second_done = eq.now(); });
    });
    eq.schedule(0, [&]() { port.submit(10, {}); });
    eq.run();
    EXPECT_EQ(second_done, 20u);
    EXPECT_EQ(port.stats().conflict_stalls, 0u);
    EXPECT_EQ(port.stats().stall_ticks, 0u);
    EXPECT_EQ(port.stats().peak_queue, 1u);

    // The same zero-wait miss on a free server whose shared token is
    // still held by another port's pending completion.
    EventQueue eq2;
    Component owner2(eq2, "memory");
    TokenPool tokens(1);
    Port a(owner2, "a", 1, 4, &tokens);
    Port b(owner2, "b", 1, 4, &tokens);
    eq2.schedule(10, [&]() { b.submit(10, {}); });
    eq2.schedule(0, [&]() { a.submit(10, {}); });
    eq2.run();
    EXPECT_EQ(eq2.now(), 20u);
    EXPECT_EQ(b.stats().conflict_stalls, 0u);
    EXPECT_EQ(b.stats().peak_queue, 1u);
    EXPECT_EQ(a.stats().peak_queue, 0u);

    // A submission behind an already-queued request misses too.
    EventQueue eq3;
    Component owner3(eq3, "memory");
    Port busy(owner3, "p0", /*width=*/1, /*buffer_limit=*/4);
    eq3.schedule(0, [&]() {
        busy.submit(10, {});
        busy.submit(10, {});
        busy.submit(10, {});
    });
    eq3.run();
    EXPECT_EQ(busy.stats().peak_queue, 2u);
}

TEST(SimPort, PeakInServiceIsTheMostServersHeldAtOnce)
{
    EventQueue eq;
    Component owner(eq, "wire");
    Port port(owner, "p0", /*width=*/3, /*buffer_limit=*/4);
    EXPECT_EQ(port.stats().peak_in_service, 0u);
    eq.schedule(0, [&]() {
        port.submit(10, {});
        port.submit(10, {});
    });
    // Two fast-path starts, then one more beside them and one queued
    // until a server frees.
    eq.schedule(5, [&]() {
        port.submit(10, {});
        port.submit(10, {});
    });
    eq.run();
    EXPECT_EQ(port.stats().peak_in_service, 3u);
    EXPECT_EQ(port.stats().peak_queue, 1u);

    // Serial traffic never holds more than one server.
    EventQueue eq2;
    Component owner2(eq2, "wire");
    Port serial(owner2, "p0", /*width=*/3, /*buffer_limit=*/4);
    eq2.schedule(0, [&]() { serial.submit(10, {}); });
    eq2.schedule(11, [&]() { serial.submit(10, {}); });
    eq2.run();
    EXPECT_EQ(serial.stats().peak_in_service, 1u);
    EXPECT_EQ(serial.stats().peak_queue, 0u);
}

TEST(SimTokenPool, PeakInUseIsTheMostTokensHeldAtOnce)
{
    EventQueue eq;
    Component owner(eq, "memory");
    TokenPool tokens(4);
    Port a(owner, "a", 1, 4, &tokens);
    Port b(owner, "b", 1, 4, &tokens);
    Port c(owner, "c", 1, 4, &tokens);
    eq.schedule(0, [&]() {
        a.submit(10, {});
        b.submit(10, {});
    });
    eq.schedule(5, [&]() { c.submit(10, {}); });
    eq.run();
    EXPECT_EQ(tokens.peakInUse(), 3u);
    EXPECT_EQ(tokens.inUse(), 0u);
}

TEST(SimPort, BoundedBufferBackpressuresFifo)
{
    EventQueue eq;
    Component owner(eq, "memory");
    // Width 1, buffer 1: the third same-tick submission finds the
    // buffer full and waits in the overflow queue.
    Port port(owner, "p0", /*width=*/1, /*buffer_limit=*/1);

    std::vector<int> order;
    eq.schedule(0, [&]() {
        for (int id = 0; id < 3; ++id)
            port.submit(5, [&, id]() { order.push_back(id); });
    });
    eq.run();

    // Backpressure must not reorder: service is submission order even
    // across the buffer/overflow boundary.
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(port.stats().buffer_overflows, 1u);
    EXPECT_EQ(port.stats().served, 3u);
    EXPECT_EQ(eq.now(), 15u);
}

TEST(SimPort, FireAndForgetSubmissionCompletes)
{
    EventQueue eq;
    Component owner(eq, "memory");
    Port port(owner, "p0", 1, 4);
    eq.schedule(0, [&]() { port.submit(7, {}); });
    eq.run();
    EXPECT_EQ(port.stats().served, 1u);
    EXPECT_EQ(eq.now(), 7u);
    EXPECT_EQ(port.inService(), 0u);
    EXPECT_EQ(port.inFlight(), 0u);
}

TEST(SimPort, UtilizationAndMeanQueueGuardZeroMakespan)
{
    // A port that never ran reports 0, not a division by zero.
    EventQueue eq;
    Component owner(eq, "memory");
    Port port(owner, "p0", 3, 4);
    EXPECT_DOUBLE_EQ(port.utilization(0), 0.0);
    EXPECT_DOUBLE_EQ(port.meanQueue(0), 0.0);
}

TEST(SimPortDeath, ZeroWidthOrBufferIsFatal)
{
    EventQueue eq;
    Component owner(eq, "memory");
    EXPECT_DEATH(Port(owner, "p0", 0, 4), "nonzero width");
    EXPECT_DEATH(Port(owner, "p0", 1, 0), "nonzero buffer limit");
    EXPECT_DEATH(TokenPool(0), "nonzero capacity");
}

TEST(SimTokenPool, ParkedPortsWakeInParkingOrder)
{
    // Two width-1 ports sharing one token: grants must alternate in
    // parking order (a, b, a, b), never by pointer or hash order.
    EventQueue eq;
    Component owner(eq, "memory");
    TokenPool tokens(1);
    Port a(owner, "a", 1, 8, &tokens);
    Port b(owner, "b", 1, 8, &tokens);

    std::vector<std::string> order;
    eq.schedule(0, [&]() {
        a.submit(5, [&]() { order.push_back("a0"); });
        b.submit(5, [&]() { order.push_back("b0"); });
        a.submit(5, [&]() { order.push_back("a1"); });
        b.submit(5, [&]() { order.push_back("b1"); });
    });
    eq.run();

    EXPECT_EQ(order, (std::vector<std::string>{"a0", "b0", "a1",
                                               "b1"}));
    // One token fully serializes the four services.
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(tokens.inUse(), 0u);
    // The pool, not the ports' own width, caused the waits.
    EXPECT_EQ(a.stats().conflict_stalls + b.stats().conflict_stalls,
              3u);
}

TEST(SimBankedMemory, AddressesHashToBanksByModulo)
{
    EventQueue eq;
    BankedMemoryConfig config;
    config.banks = 4;
    BankedMemory memory(eq, "mem", config);
    EXPECT_EQ(memory.banks(), 4u);
    EXPECT_EQ(memory.bankOf(0), 0u);
    EXPECT_EQ(memory.bankOf(5), 1u);
    EXPECT_EQ(memory.bankOf(7), 3u);

    eq.schedule(0, [&]() { memory.request(6, 1, {}); });
    eq.run();
    EXPECT_EQ(memory.bank(2).stats().requests, 1u);
    EXPECT_EQ(memory.requests(), 1u);
    EXPECT_EQ(memory.served(), 1u);
}

TEST(SimBankedMemory, ServiceTimeIsPerRequestPlusPerLine)
{
    EventQueue eq;
    BankedMemoryConfig config;
    config.banks = 2;
    config.cycles_per_request = 10;
    config.cycles_per_line = 3;
    BankedMemory memory(eq, "mem", config);
    eq.schedule(0, [&]() { memory.request(1, 4, {}); });
    eq.run();
    EXPECT_EQ(eq.now(), 22u);  // 10 + 3 * 4
    EXPECT_EQ(memory.busyTicks(), 22u);
}

TEST(SimBankedMemory, ConflictsAreZeroWithoutContention)
{
    // Distinct banks, enough ports: same-tick requests all start
    // immediately — the conflict-stall column is structurally zero.
    EventQueue eq;
    BankedMemoryConfig config;
    config.banks = 4;
    config.ports = 4;
    config.cycles_per_request = 10;
    BankedMemory memory(eq, "mem", config);
    eq.schedule(0, [&]() {
        for (std::uint64_t address = 0; address < 4; ++address)
            memory.request(address, 1, {});
    });
    eq.run();
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_EQ(memory.bankConflicts(), 0u);
    EXPECT_EQ(memory.stallTicks(), 0u);
    EXPECT_EQ(memory.peakQueue(), 0u);
    EXPECT_DOUBLE_EQ(memory.utilization(10), 1.0);
}

TEST(SimBankedMemory, SingleBankSinglePortSerializesAndCounts)
{
    // The conflict storm: everything lands in bank 0 behind one
    // port. Makespan quadruples and every delayed request is counted.
    EventQueue eq;
    BankedMemoryConfig config;
    config.banks = 1;
    config.ports = 1;
    config.cycles_per_request = 10;
    BankedMemory memory(eq, "mem", config);
    eq.schedule(0, [&]() {
        for (std::uint64_t address = 0; address < 4; ++address)
            memory.request(address, 1, {});
    });
    eq.run();
    EXPECT_EQ(eq.now(), 40u);
    EXPECT_EQ(memory.bankConflicts(), 3u);
    EXPECT_EQ(memory.stallTicks(), 60u);  // 10 + 20 + 30
    EXPECT_EQ(memory.peakQueue(), 3u);
    EXPECT_GT(memory.meanQueue(40), 0.0);
    EXPECT_EQ(memory.bufferOverflows(), 0u);
}

TEST(SimBankedMemory, SharedPortsCapCrossBankParallelism)
{
    // Eight banks but two ports: same-tick requests to eight distinct
    // banks still issue at most two at a time.
    EventQueue eq;
    BankedMemoryConfig config;
    config.banks = 8;
    config.ports = 2;
    config.cycles_per_request = 10;
    BankedMemory memory(eq, "mem", config);
    eq.schedule(0, [&]() {
        for (std::uint64_t address = 0; address < 8; ++address)
            memory.request(address, 1, {});
    });
    eq.run();
    EXPECT_EQ(eq.now(), 40u);  // ceil(8 / 2) waves of 10
    EXPECT_EQ(memory.bankConflicts(), 6u);
    EXPECT_EQ(memory.served(), 8u);
}

TEST(SimBankedMemory, PeakInServiceCountsAcrossBanks)
{
    // The shared port pool's peak: eight banks behind two ports never
    // serve more than two requests at once; three banks behind four
    // ports serve three.
    for (const auto &[banks, ports, expected] :
         {std::tuple{8u, 2u, 2u}, std::tuple{3u, 4u, 3u}}) {
        EventQueue eq;
        BankedMemoryConfig config;
        config.banks = banks;
        config.ports = ports;
        config.cycles_per_request = 10;
        BankedMemory memory(eq, "mem", config);
        eq.schedule(0, [&]() {
            for (std::uint64_t address = 0; address < banks; ++address)
                memory.request(address, 1, {});
        });
        eq.run();
        EXPECT_EQ(memory.peakInService(), expected) << banks;
    }
}

TEST(SimBankedMemory, UtilizationIsTheSharedBusyFraction)
{
    EventQueue eq;
    BankedMemoryConfig config;
    config.banks = 3;
    config.cycles_per_request = 7;
    BankedMemory memory(eq, "mem", config);
    eq.schedule(0, [&]() {
        for (std::uint64_t address = 0; address < 5; ++address)
            memory.request(address, 1, {});
    });
    eq.run();
    EXPECT_EQ(memory.busyTicks(), 35u);
    EXPECT_EQ(memory.utilization(eq.now()),
              busyFraction(memory.busyTicks(), eq.now(), 3));
    EXPECT_DOUBLE_EQ(memory.utilization(eq.now()), 35.0 / (14.0 * 3.0));
    EXPECT_EQ(busyFraction(35, 0, 3), 0.0);
    EXPECT_EQ(busyFraction(35, 14, 0), 0.0);
}

TEST(SimBankedMemory, FullBankBufferBackpressures)
{
    EventQueue eq;
    BankedMemoryConfig config;
    config.banks = 1;
    config.ports = 1;
    config.buffer = 2;
    config.cycles_per_request = 5;
    BankedMemory memory(eq, "mem", config);
    std::vector<int> order;
    eq.schedule(0, [&]() {
        for (int id = 0; id < 5; ++id)
            memory.request(0, 1, [&, id]() { order.push_back(id); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    // In service + 2 buffered; the remaining 2 overflowed.
    EXPECT_EQ(memory.bufferOverflows(), 2u);
    EXPECT_EQ(memory.served(), 5u);
}

TEST(SimBankedMemory, ReportsGuardZeroMakespan)
{
    EventQueue eq;
    BankedMemory memory(eq, "mem", {});
    EXPECT_DOUBLE_EQ(memory.utilization(0), 0.0);
    EXPECT_DOUBLE_EQ(memory.meanQueue(0), 0.0);
}

TEST(SimBankedMemoryDeath, MalformedConfigIsFatal)
{
    EventQueue eq;
    BankedMemoryConfig no_banks;
    no_banks.banks = 0;
    EXPECT_DEATH(BankedMemory(eq, "mem", no_banks),
                 "at least one bank");
    BankedMemoryConfig free_service;
    free_service.cycles_per_request = 0;
    EXPECT_DEATH(BankedMemory(eq, "mem", free_service),
                 "at least one tick per request");
}

TEST(SimTransferChannels, UtilizationGuardsZeroMakespan)
{
    // The regression the refactor must not lose: utilization of an
    // empty run is 0.0, never a division by zero.
    EventQueue eq;
    TransferChannels channels(eq, 4);
    EXPECT_DOUBLE_EQ(channels.utilization(0), 0.0);
    EXPECT_DOUBLE_EQ(channels.meanQueue(0), 0.0);
    EXPECT_EQ(channels.transfers(), 0u);
}

TEST(SimTransferChannels, SurfacesPortContentionStats)
{
    EventQueue eq;
    TransferChannels channels(eq, 1);
    std::vector<int> order;
    eq.schedule(0, [&]() {
        for (int id = 0; id < 3; ++id)
            channels.transfer(10, 10,
                              [&, id]() { order.push_back(id); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(channels.transfers(), 3u);
    EXPECT_EQ(channels.conflicts(), 2u);
    EXPECT_EQ(channels.stallTicks(), 30u);  // 10 + 20
    EXPECT_EQ(channels.peakQueue(), 2u);
    EXPECT_EQ(channels.busyTicks(), 30u);
    EXPECT_DOUBLE_EQ(channels.utilization(30), 1.0);
}

} // namespace
} // namespace sim
} // namespace qmh
