// Package sim provides the cluster cost model that stands in for the
// paper's 4,000-node testbed (DESIGN.md §2). Storage plugins and the
// transport charge simulated costs (bytes moved per device class, operation
// latencies) to a Bill; the harness converts bills into simulated wall-clock
// response times by computing the critical path across the execution tree.
//
// The defaults mirror the paper's hardware: 4-core 2.4 GHz Xeon, 3 TB SATA
// disks (~120 MB/s sequential), 500 GB SSD (~400 MB/s), 1 Gbps full-duplex
// Ethernet (~110 MB/s effective), and millisecond-scale RPC latency.
package sim

import (
	"fmt"
	"sync"
	"time"
)

// DeviceClass labels where bytes were read from or sent over.
type DeviceClass int

// Device classes charged by the storage and transport layers.
const (
	// DeviceHDD is a SATA spinning disk (local FS, HDFS datanode).
	DeviceHDD DeviceClass = iota
	// DeviceSSD is the SSD cache tier.
	DeviceSSD
	// DeviceMemory is an in-memory read (SmartIndex hit, memfs).
	DeviceMemory
	// DeviceNetwork is bytes moved between servers.
	DeviceNetwork
	// DeviceCold is the Fatman cold-archive tier (volunteer machines,
	// throttled bandwidth, high seek latency).
	DeviceCold
	numDevices
)

// String returns the device class name.
func (d DeviceClass) String() string {
	switch d {
	case DeviceHDD:
		return "hdd"
	case DeviceSSD:
		return "ssd"
	case DeviceMemory:
		return "mem"
	case DeviceNetwork:
		return "net"
	case DeviceCold:
		return "cold"
	default:
		return fmt.Sprintf("device(%d)", int(d))
	}
}

// CostModel converts bytes and operations into simulated time.
type CostModel struct {
	// BandwidthBytesPerSec per device class.
	Bandwidth [numDevices]float64
	// SeekLatency charged once per read operation, per device class.
	SeekLatency [numDevices]time.Duration
	// RPCLatency charged per RPC hop.
	RPCLatency time.Duration
	// CPUBytesPerSec models predicate-evaluation throughput per core,
	// charged per byte actually scanned and filtered.
	CPUBytesPerSec float64
}

// DefaultCostModel mirrors the paper's per-node hardware (§VI-A).
func DefaultCostModel() *CostModel {
	m := &CostModel{
		RPCLatency:     500 * time.Microsecond,
		CPUBytesPerSec: 600e6, // predicate eval over packed columns
	}
	m.Bandwidth[DeviceHDD] = 120e6
	m.Bandwidth[DeviceSSD] = 400e6
	m.Bandwidth[DeviceMemory] = 8e9
	m.Bandwidth[DeviceNetwork] = 110e6 // 1 Gbps effective
	m.Bandwidth[DeviceCold] = 30e6     // throttled volunteer nodes
	m.SeekLatency[DeviceHDD] = 8 * time.Millisecond
	m.SeekLatency[DeviceSSD] = 100 * time.Microsecond
	m.SeekLatency[DeviceMemory] = 0
	m.SeekLatency[DeviceNetwork] = 0
	m.SeekLatency[DeviceCold] = 40 * time.Millisecond
	return m
}

// ReadCost returns the simulated time to read n bytes from a device,
// including one seek.
func (m *CostModel) ReadCost(d DeviceClass, n int64) time.Duration {
	if n < 0 {
		n = 0
	}
	bw := m.Bandwidth[d]
	if bw <= 0 {
		return m.SeekLatency[d]
	}
	return m.SeekLatency[d] + time.Duration(float64(n)/bw*float64(time.Second))
}

// TransferCost returns the simulated time to move n bytes over the network
// across `hops` switch hops (one RPC latency per hop).
func (m *CostModel) TransferCost(n int64, hops int) time.Duration {
	if hops < 1 {
		hops = 1
	}
	return time.Duration(hops)*m.RPCLatency +
		time.Duration(float64(n)/m.Bandwidth[DeviceNetwork]*float64(time.Second))
}

// ScanCost returns the simulated CPU time to evaluate predicates over n
// bytes of column data.
func (m *CostModel) ScanCost(n int64) time.Duration {
	if m.CPUBytesPerSec <= 0 {
		return 0
	}
	return time.Duration(float64(n) / m.CPUBytesPerSec * float64(time.Second))
}

// Bill accumulates simulated costs. Bills are cheap and concurrency-safe;
// every task execution gets one, and the scheduler folds task bills into a
// per-query critical path.
type Bill struct {
	mu    sync.Mutex
	bytes [numDevices]int64
	ops   [numDevices]int64
	time  time.Duration
	// Per-category breakdown of time, feeding the trace spans behind
	// EXPLAIN ANALYZE: read time per device class, network transfer time,
	// CPU scan time, and raw charged durations.
	devTime      [numDevices]time.Duration
	transferTime time.Duration
	scanTime     time.Duration
	otherTime    time.Duration
	spillBytes   int64
	spillTime    time.Duration
}

// NewBill returns an empty bill.
func NewBill() *Bill { return &Bill{} }

// ChargeRead records a read of n bytes from device d under model m.
func (b *Bill) ChargeRead(m *CostModel, d DeviceClass, n int64) {
	cost := m.ReadCost(d, n)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.bytes[d] += n
	b.ops[d]++
	b.time += cost
	b.devTime[d] += cost
}

// ChargeScan records CPU predicate evaluation over n bytes.
func (b *Bill) ChargeScan(m *CostModel, n int64) {
	cost := m.ScanCost(n)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.time += cost
	b.scanTime += cost
}

// ChargeTransfer records a network transfer of n bytes over hops hops.
func (b *Bill) ChargeTransfer(m *CostModel, n int64, hops int) {
	cost := m.TransferCost(n, hops)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.bytes[DeviceNetwork] += n
	b.ops[DeviceNetwork]++
	b.time += cost
	b.transferTime += cost
}

// ChargeSpill records an operator spilling n bytes to device d under its
// memory grant (grace-hash partitions written out and read back). Spill I/O
// is tracked apart from plain reads so EXPLAIN ANALYZE can attribute it, and
// SpillBytes lets tests assert billed bytes match bytes actually written.
func (b *Bill) ChargeSpill(m *CostModel, d DeviceClass, n int64) {
	cost := m.ReadCost(d, n)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.bytes[d] += n
	b.ops[d]++
	b.time += cost
	b.devTime[d] += cost
	b.spillBytes += n
	b.spillTime += cost
}

// ChargeDuration adds raw simulated time (e.g. queueing delay).
func (b *Bill) ChargeDuration(d time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.time += d
	b.otherTime += d
}

// Add folds another bill's charges into b (serial composition).
func (b *Bill) Add(other *Bill) {
	if other == nil || other == b {
		return
	}
	other.mu.Lock()
	bytes, ops, t := other.bytes, other.ops, other.time
	devTime, transfer, scan, raw := other.devTime, other.transferTime, other.scanTime, other.otherTime
	spillB, spillT := other.spillBytes, other.spillTime
	other.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := range b.bytes {
		b.bytes[i] += bytes[i]
		b.ops[i] += ops[i]
		b.devTime[i] += devTime[i]
	}
	b.time += t
	b.transferTime += transfer
	b.scanTime += scan
	b.otherTime += raw
	b.spillBytes += spillB
	b.spillTime += spillT
}

// Time returns the accumulated simulated time.
func (b *Bill) Time() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.time
}

// Bytes returns the bytes charged to device d.
func (b *Bill) Bytes(d DeviceClass) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.bytes[d]
}

// DeviceBytes is a byte count per device class, indexed by DeviceClass.
type DeviceBytes [numDevices]int64

// DeviceBytes returns the bytes charged to every device class.
func (b *Bill) DeviceBytes() DeviceBytes {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.bytes
}

// AddTo adds every non-zero count to m under its device class name.
func (d DeviceBytes) AddTo(m map[string]int64) {
	for dev, n := range d {
		if n != 0 {
			m[DeviceClass(dev).String()] += n
		}
	}
}

// Ops returns the operation count charged to device d.
func (b *Bill) Ops(d DeviceClass) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ops[d]
}

// TimeOf returns the read time charged against device d.
func (b *Bill) TimeOf(d DeviceClass) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.devTime[d]
}

// TransferTime returns the accumulated network-transfer time.
func (b *Bill) TransferTime() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.transferTime
}

// ScanTime returns the accumulated CPU predicate-evaluation time.
func (b *Bill) ScanTime() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.scanTime
}

// OtherTime returns raw durations charged via ChargeDuration.
func (b *Bill) OtherTime() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.otherTime
}

// SpillBytes returns the bytes written by operator spills.
func (b *Bill) SpillBytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.spillBytes
}

// SpillTime returns the simulated time charged to operator spill I/O.
func (b *Bill) SpillTime() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.spillTime
}

// Reset zeroes the bill.
func (b *Bill) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.bytes = [numDevices]int64{}
	b.ops = [numDevices]int64{}
	b.time = 0
	b.devTime = [numDevices]time.Duration{}
	b.transferTime = 0
	b.scanTime = 0
	b.otherTime = 0
	b.spillBytes = 0
	b.spillTime = 0
}

// CriticalPath returns the simulated response time of a fan-out stage:
// the maximum of the children's times plus the parent's own time. This is
// how the harness composes per-leaf bills through stem servers up to the
// master (paper Fig. 3: results are summarized bottom-up).
func CriticalPath(parent time.Duration, children ...time.Duration) time.Duration {
	max := time.Duration(0)
	for _, c := range children {
		if c > max {
			max = c
		}
	}
	return parent + max
}
