// Unit tests: address space and data objects.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "mem/address_space.hpp"
#include "mem/data_object.hpp"

namespace isp::mem {
namespace {

TEST(AddressSpace, StandardLayoutResolvesKinds) {
  const auto space = AddressSpace::standard_layout(1_GiB, 512_MiB);
  EXPECT_EQ(space.kind_of(0), MemKind::HostDram);
  EXPECT_EQ(space.kind_of((1_GiB).count() - 1), MemKind::HostDram);
  EXPECT_EQ(space.kind_of((1_GiB).count()), MemKind::DeviceDram);
  EXPECT_EQ(space.kind_of((1_GiB).count() + (512_MiB).count()),
            MemKind::DeviceBar);
  EXPECT_FALSE(
      space.kind_of((1_GiB).count() + 2 * (512_MiB).count()).has_value());
}

TEST(AddressSpace, RejectsOverlap) {
  AddressSpace space;
  space.map(MemKind::HostDram, 0, Bytes{1000});
  EXPECT_THROW(space.map(MemKind::DeviceDram, 500, Bytes{1000}), Error);
  EXPECT_NO_THROW(space.map(MemKind::DeviceDram, 1000, Bytes{1000}));
}

TEST(AddressSpace, WindowLookup) {
  const auto space = AddressSpace::standard_layout(1_GiB, 512_MiB);
  const auto* host = space.window(MemKind::HostDram);
  ASSERT_NE(host, nullptr);
  EXPECT_EQ(host->size.count(), (1_GiB).count());
  EXPECT_EQ(space.window(MemKind::DeviceBar)->size.count(), (512_MiB).count());
}

TEST(Buffer, TypedViews) {
  Buffer buffer;
  buffer.resize_elems<double>(4);
  EXPECT_EQ(buffer.size_bytes(), 32u);
  EXPECT_EQ(buffer.size_as<double>(), 4u);
  auto view = buffer.as<double>();
  view[0] = 1.5;
  view[3] = -2.5;
  const auto& const_buffer = buffer;
  EXPECT_DOUBLE_EQ(const_buffer.as<double>()[0], 1.5);
  EXPECT_DOUBLE_EQ(const_buffer.as<double>()[3], -2.5);
  buffer.clear();
  EXPECT_TRUE(buffer.empty());
}

TEST(DataObject, SyncVirtualSize) {
  DataObject obj;
  obj.name = "x";
  obj.physical.resize_elems<float>(1000);  // 4000 physical bytes
  obj.sync_virtual_size(128.0);
  EXPECT_EQ(obj.virtual_bytes.count(), 512000u);
}

TEST(DataObject, LocationNames) {
  EXPECT_EQ(location_name(Location::Storage), "storage");
  EXPECT_EQ(location_name(Location::HostDram), "host-dram");
  EXPECT_EQ(location_name(Location::DeviceDram), "device-dram");
}

}  // namespace
}  // namespace isp::mem
