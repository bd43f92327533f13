package sim

import (
	"sync"
	"testing"
	"time"
)

func TestDeviceClassString(t *testing.T) {
	want := map[DeviceClass]string{
		DeviceHDD: "hdd", DeviceSSD: "ssd", DeviceMemory: "mem",
		DeviceNetwork: "net", DeviceCold: "cold",
	}
	for d, s := range want {
		if d.String() != s {
			t.Errorf("%d.String() = %q, want %q", d, d.String(), s)
		}
	}
	if DeviceClass(99).String() != "device(99)" {
		t.Error("unknown device string")
	}
}

func TestReadCostOrdering(t *testing.T) {
	m := DefaultCostModel()
	n := int64(64 << 20)
	hdd := m.ReadCost(DeviceHDD, n)
	ssd := m.ReadCost(DeviceSSD, n)
	mem := m.ReadCost(DeviceMemory, n)
	cold := m.ReadCost(DeviceCold, n)
	if !(mem < ssd && ssd < hdd && hdd < cold) {
		t.Errorf("device cost ordering violated: mem=%v ssd=%v hdd=%v cold=%v", mem, ssd, hdd, cold)
	}
}

func TestReadCostNegativeBytes(t *testing.T) {
	m := DefaultCostModel()
	if got := m.ReadCost(DeviceHDD, -5); got != m.SeekLatency[DeviceHDD] {
		t.Errorf("negative bytes cost = %v", got)
	}
}

func TestReadCostZeroBandwidth(t *testing.T) {
	m := DefaultCostModel()
	m.Bandwidth[DeviceHDD] = 0
	if got := m.ReadCost(DeviceHDD, 100); got != m.SeekLatency[DeviceHDD] {
		t.Errorf("zero bandwidth cost = %v", got)
	}
}

func TestTransferCostHops(t *testing.T) {
	m := DefaultCostModel()
	one := m.TransferCost(0, 1)
	three := m.TransferCost(0, 3)
	if three != 3*one {
		t.Errorf("hop scaling: 1=%v 3=%v", one, three)
	}
	if m.TransferCost(0, 0) != one {
		t.Error("hops<1 should clamp to 1")
	}
}

func TestScanCost(t *testing.T) {
	m := DefaultCostModel()
	if m.ScanCost(0) != 0 {
		t.Error("zero bytes should cost 0")
	}
	if m.ScanCost(int64(m.CPUBytesPerSec)) != time.Second {
		t.Errorf("1s of bytes = %v", m.ScanCost(int64(m.CPUBytesPerSec)))
	}
	m.CPUBytesPerSec = 0
	if m.ScanCost(100) != 0 {
		t.Error("zero CPU rate should cost 0")
	}
}

func TestBillAccumulation(t *testing.T) {
	m := DefaultCostModel()
	b := NewBill()
	b.ChargeRead(m, DeviceHDD, 1000)
	b.ChargeRead(m, DeviceHDD, 2000)
	b.ChargeTransfer(m, 500, 2)
	b.ChargeScan(m, 3000)
	b.ChargeDuration(time.Millisecond)
	if b.Bytes(DeviceHDD) != 3000 || b.Ops(DeviceHDD) != 2 {
		t.Errorf("hdd = %d bytes %d ops", b.Bytes(DeviceHDD), b.Ops(DeviceHDD))
	}
	if b.Bytes(DeviceNetwork) != 500 {
		t.Errorf("net bytes = %d", b.Bytes(DeviceNetwork))
	}
	want := m.ReadCost(DeviceHDD, 1000) + m.ReadCost(DeviceHDD, 2000) +
		m.TransferCost(500, 2) + m.ScanCost(3000) + time.Millisecond
	if b.Time() != want {
		t.Errorf("Time = %v, want %v", b.Time(), want)
	}
}

func TestBillAdd(t *testing.T) {
	m := DefaultCostModel()
	a, b := NewBill(), NewBill()
	a.ChargeRead(m, DeviceSSD, 100)
	b.ChargeRead(m, DeviceSSD, 200)
	a.Add(b)
	if a.Bytes(DeviceSSD) != 300 || a.Ops(DeviceSSD) != 2 {
		t.Errorf("after Add: %d bytes %d ops", a.Bytes(DeviceSSD), a.Ops(DeviceSSD))
	}
	// Self-add and nil-add are no-ops.
	before := a.Time()
	a.Add(a)
	a.Add(nil)
	if a.Time() != before {
		t.Error("self/nil Add should not change the bill")
	}
}

func TestBillReset(t *testing.T) {
	m := DefaultCostModel()
	b := NewBill()
	b.ChargeRead(m, DeviceHDD, 100)
	b.Reset()
	if b.Time() != 0 || b.Bytes(DeviceHDD) != 0 || b.Ops(DeviceHDD) != 0 {
		t.Error("Reset incomplete")
	}
}

func TestBillConcurrent(t *testing.T) {
	m := DefaultCostModel()
	b := NewBill()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				b.ChargeRead(m, DeviceMemory, 10)
			}
		}()
	}
	wg.Wait()
	if b.Bytes(DeviceMemory) != 8000 || b.Ops(DeviceMemory) != 800 {
		t.Errorf("concurrent bill: %d bytes %d ops", b.Bytes(DeviceMemory), b.Ops(DeviceMemory))
	}
}

func TestCriticalPath(t *testing.T) {
	got := CriticalPath(time.Second, 2*time.Second, 5*time.Second, time.Second)
	if got != 6*time.Second {
		t.Errorf("CriticalPath = %v", got)
	}
	if CriticalPath(time.Second) != time.Second {
		t.Error("no children should return parent time")
	}
}
