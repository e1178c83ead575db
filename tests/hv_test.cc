// Unit tests for src/hv: guest address space, device models, configs.

#include <gtest/gtest.h>

#include "src/hv/devices.h"
#include "src/hv/guest_memory.h"
#include "src/hv/hypervisor.h"

namespace hypertp {
namespace {

constexpr FrameOwner kGuest{FrameOwnerKind::kGuest, 1};

TEST(GuestAddressSpaceTest, MapAndTranslate) {
  GuestAddressSpace space;
  ASSERT_TRUE(space.MapExtent(0, 100, 10).ok());
  ASSERT_TRUE(space.MapExtent(10, 500, 5).ok());
  EXPECT_EQ(space.Translate(0).value(), 100u);
  EXPECT_EQ(space.Translate(9).value(), 109u);
  EXPECT_EQ(space.Translate(12).value(), 502u);
  EXPECT_FALSE(space.Translate(15).ok());
  EXPECT_EQ(space.mapped_frames(), 15u);
}

TEST(GuestAddressSpaceTest, ContiguousExtentsMerge) {
  GuestAddressSpace space;
  ASSERT_TRUE(space.MapExtent(0, 100, 10).ok());
  ASSERT_TRUE(space.MapExtent(10, 110, 10).ok());
  EXPECT_EQ(space.mappings().size(), 1u);
  EXPECT_EQ(space.mappings()[0].frames, 20u);
}

TEST(GuestAddressSpaceTest, OutOfOrderRejected) {
  GuestAddressSpace space;
  ASSERT_TRUE(space.MapExtent(10, 100, 5).ok());
  EXPECT_FALSE(space.MapExtent(5, 200, 5).ok());   // Before previous.
  EXPECT_FALSE(space.MapExtent(12, 200, 5).ok());  // Overlapping.
}

TEST(GuestAddressSpaceTest, ReadWriteThroughRam) {
  PhysicalMemory ram(1 << 20);
  Mfn base = ram.Alloc(8, 1, kGuest).value();
  GuestAddressSpace space;
  ASSERT_TRUE(space.MapExtent(0, base, 8).ok());
  ASSERT_TRUE(space.Write(ram, 3, 0xABCD).ok());
  EXPECT_EQ(space.Read(ram, 3).value(), 0xABCDu);
  EXPECT_EQ(ram.ReadWord(base + 3).value(), 0xABCDu);
}

TEST(GuestAddressSpaceTest, DirtyLogging) {
  PhysicalMemory ram(1 << 20);
  Mfn base = ram.Alloc(16, 1, kGuest).value();
  GuestAddressSpace space;
  ASSERT_TRUE(space.MapExtent(0, base, 16).ok());

  // Writes before logging is enabled are not tracked.
  ASSERT_TRUE(space.Write(ram, 0, 1).ok());
  space.EnableDirtyLog();
  ASSERT_TRUE(space.Write(ram, 5, 2).ok());
  ASSERT_TRUE(space.Write(ram, 3, 3).ok());
  ASSERT_TRUE(space.Write(ram, 5, 4).ok());  // Same page twice.
  ASSERT_TRUE(space.MarkDirty(7).ok());

  auto dirty = space.FetchAndClearDirty();
  EXPECT_EQ(dirty, (std::vector<Gfn>{3, 5, 7}));
  EXPECT_TRUE(space.FetchAndClearDirty().empty());

  space.DisableDirtyLog();
  ASSERT_TRUE(space.Write(ram, 9, 5).ok());
  EXPECT_EQ(space.dirty_count(), 0u);
}

// DumpNonZero must list exactly what per-gfn reads see, in gfn order, even
// when the map's MFN order differs from its gfn order and another VM's
// written frames sit between this VM's extents.
TEST(GuestAddressSpaceTest, DumpNonZeroMatchesPerGfnReadsOnAFragmentedMap) {
  PhysicalMemory ram(8 << 20);  // 2048 frames.
  constexpr FrameOwner kOther{FrameOwnerKind::kGuest, 2};
  // Physical layout: a0 b0 a1 b1 a2, extents of varying size.
  const Mfn a0 = ram.Alloc(100, 1, kGuest).value();
  const Mfn b0 = ram.Alloc(70, 1, kOther).value();
  const Mfn a1 = ram.Alloc(130, 1, kGuest).value();
  const Mfn b1 = ram.Alloc(90, 1, kOther).value();
  const Mfn a2 = ram.Alloc(65, 1, kGuest).value();

  // Guest A maps them out of MFN order and with a gfn hole; B is interleaved.
  GuestAddressSpace a;
  ASSERT_TRUE(a.MapExtent(0, a2, 65).ok());
  ASSERT_TRUE(a.MapExtent(65, a0 + 40, 60).ok());
  ASSERT_TRUE(a.MapExtent(200, a1, 130).ok());
  ASSERT_TRUE(a.MapExtent(330, a0, 40).ok());
  GuestAddressSpace b;
  ASSERT_TRUE(b.MapExtent(0, b1, 90).ok());
  ASSERT_TRUE(b.MapExtent(90, b0, 70).ok());

  // Write a pseudo-random pattern through both spaces, zeroing some pages
  // again afterwards.
  uint64_t x = 0x9E3779B97F4A7C15ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < 400; ++i) {
    GuestAddressSpace& space = next() % 2 == 0 ? a : b;
    const GuestMapping& m = space.mappings()[next() % space.mappings().size()];
    const Gfn gfn = m.gfn + next() % m.frames;
    ASSERT_TRUE(space.Write(ram, gfn, next() % 5 == 0 ? 0 : next()).ok());
  }

  for (const GuestAddressSpace* space : {&a, &b}) {
    std::vector<std::pair<Gfn, uint64_t>> oracle;
    for (const GuestMapping& m : space->mappings()) {
      for (Gfn g = m.gfn; g < m.gfn_end(); ++g) {
        const uint64_t word = space->Read(ram, g).value();
        if (word != 0) {
          oracle.emplace_back(g, word);
        }
      }
    }
    ASSERT_FALSE(oracle.empty());
    EXPECT_EQ(space->DumpNonZero(ram), oracle);
  }
}

TEST(DevicesTest, VirtioNetRoundTrip) {
  VirtioNetState s;
  s.mac = {1, 2, 3, 4, 5, 6};
  s.features = 0x13;
  s.tx_used_idx = 42;
  s.link_up = false;
  auto decoded = VirtioNetState::FromBytes(s.ToBytes());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, s);
}

TEST(DevicesTest, VirtioBlkRoundTrip) {
  VirtioBlkState s;
  s.capacity_sectors = 1 << 30;
  s.requests_inflight = 3;
  auto decoded = VirtioBlkState::FromBytes(s.ToBytes());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, s);
}

TEST(DevicesTest, UartRoundTrip) {
  Uart16550State s;
  s.lcr = 0x80;
  s.scr = 0x55;
  auto decoded = Uart16550State::FromBytes(s.ToBytes());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, s);
}

TEST(DevicesTest, PassthroughRoundTrip) {
  PassthroughState s;
  s.pci_bdf = 0x0402;
  s.paused = true;
  auto decoded = PassthroughState::FromBytes(s.ToBytes());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, s);
}

TEST(DevicesTest, WrongTagRejected) {
  VirtioNetState net;
  auto blk = VirtioBlkState::FromBytes(net.ToBytes());
  ASSERT_FALSE(blk.ok());
  EXPECT_EQ(blk.error().code(), ErrorCode::kDataLoss);
}

TEST(DevicesTest, DefaultStatesDeterministic) {
  auto a = MakeDefaultDeviceState("virtio-net", 0, 7, DeviceAttachMode::kUnplugged);
  auto b = MakeDefaultDeviceState("virtio-net", 0, 7, DeviceAttachMode::kUnplugged);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  auto c = MakeDefaultDeviceState("virtio-net", 0, 8, DeviceAttachMode::kUnplugged);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->opaque, c->opaque);  // Different VM, different MAC.
}

TEST(DevicesTest, UnknownModelRejected) {
  EXPECT_FALSE(MakeDefaultDeviceState("floppy", 0, 1, DeviceAttachMode::kEmulated).ok());
  EXPECT_FALSE(IsKnownDeviceModel("floppy"));
  EXPECT_TRUE(IsKnownDeviceModel("virtio-blk"));
}

TEST(DevicesTest, TransplantValidation) {
  // Busy virtio-blk must be rejected.
  VirtioBlkState blk;
  blk.requests_inflight = 2;
  UisrDeviceState dev{"virtio-blk", 0, DeviceAttachMode::kEmulated, blk.ToBytes()};
  auto busy = ValidateDeviceForTransplant(dev);
  ASSERT_FALSE(busy.ok());
  EXPECT_EQ(busy.error().code(), ErrorCode::kFailedPrecondition);

  // Unpaused pass-through must be rejected.
  PassthroughState pt;
  pt.paused = false;
  UisrDeviceState ptdev{"nvme-pt", 0, DeviceAttachMode::kPassthrough, pt.ToBytes()};
  EXPECT_FALSE(ValidateDeviceForTransplant(ptdev).ok());

  // PrepareDevicesForTransplant fixes both.
  std::vector<UisrDeviceState> devices{dev, ptdev};
  ASSERT_TRUE(PrepareDevicesForTransplant(devices).ok());
  EXPECT_TRUE(ValidateDeviceForTransplant(devices[0]).ok());
  EXPECT_TRUE(ValidateDeviceForTransplant(devices[1]).ok());
}

TEST(DevicesTest, UnplugResetsQueuesKeepsMac) {
  auto dev = MakeDefaultDeviceState("virtio-net", 0, 9, DeviceAttachMode::kUnplugged);
  ASSERT_TRUE(dev.ok());
  VirtioNetState before = VirtioNetState::FromBytes(dev->opaque).value();
  // Simulate traffic.
  VirtioNetState busy = before;
  busy.tx_avail_idx = 100;
  busy.rx_used_idx = 50;
  dev->opaque = busy.ToBytes();

  std::vector<UisrDeviceState> devices{*dev};
  ASSERT_TRUE(PrepareDevicesForTransplant(devices).ok());
  VirtioNetState after = VirtioNetState::FromBytes(devices[0].opaque).value();
  EXPECT_EQ(after.mac, before.mac);  // Configuration survives.
  EXPECT_EQ(after.tx_avail_idx, 0);  // Queue state does not.
  EXPECT_FALSE(after.link_up);
}

TEST(VmConfigTest, SmallMatchesPaperBaseline) {
  VmConfig config = VmConfig::Small("vm");
  EXPECT_EQ(config.vcpus, 1u);
  EXPECT_EQ(config.memory_bytes, 1ull << 30);
  EXPECT_TRUE(config.huge_pages);
  EXPECT_EQ(config.devices.size(), 3u);
}

TEST(VmUidTest, MonotonicAndUnique) {
  uint64_t a = AllocateVmUid();
  uint64_t b = AllocateVmUid();
  EXPECT_LT(a, b);
}

}  // namespace
}  // namespace hypertp
