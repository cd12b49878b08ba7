// Package history is the reconfiguration history lake: an append-only,
// bounded store of every committed reconfiguration a region performs.
// Where the trace flight recorder answers "which phase of reconfig #42
// was slow" until the ring forgets, the lake answers the operator's
// time-travel questions — what did the region look like before shift
// #1234, what changed, did health degrade — by capturing each reconfig
// as one self-contained Record: trigger, span tree, allocation diff
// (pair and duct granularity), and pre/post health + hose aggregates.
//
// Appends are O(1) and allocation-free at steady state: records land in
// pre-allocated per-shard rings, the oldest record of a full shard is
// overwritten in place, and the ID index reuses its map storage. Reads
// lock one shard (Get) or snapshot each shard in turn (Records), never
// the whole lake at once. With a Path configured, every record is also
// written as one JSON line, and a new lake replays the tail of that file
// so history survives a daemon restart.
package history

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"iris/internal/core"
	"iris/internal/telemetry"
	"iris/internal/trace"
)

// Trigger says which control-plane path committed a reconfiguration.
type Trigger string

const (
	// TriggerConverge is the daemon's steady-state converge loop reacting
	// to a traffic shift.
	TriggerConverge Trigger = "converge"
	// TriggerRepair is a health-driven repair pass.
	TriggerRepair Trigger = "repair"
	// TriggerChaos is a chaos-cycle (inject → heal → replan → settle).
	TriggerChaos Trigger = "chaos-cycle"
	// TriggerEnvelopeEscape is a robust-mode re-plan: the live demand
	// left the committed envelope and a new envelope was solved.
	TriggerEnvelopeEscape Trigger = "envelope-escape"
)

// Health is the control-plane health snapshot bracketing a record.
type Health struct {
	Healthy    bool `json:"healthy"`
	Converged  bool `json:"converged"`
	NeedRepair bool `json:"need_repair"`
}

// HoseAggregate summarizes the demand matrix a reconfiguration served:
// total wavelengths, the largest single pair, and the pair count.
type HoseAggregate struct {
	Total   float64 `json:"total"`
	MaxPair float64 `json:"max_pair"`
	Pairs   int     `json:"pairs"`
}

// Record is one committed reconfiguration. Seq is assigned by the lake
// at append time and totally orders records; ReconfigID is the trace ID
// the control plane threaded through the operation, so the record joins
// against /debug/events and /status.LastReconfigID.
type Record struct {
	Seq        uint64        `json:"seq"`
	ReconfigID uint64        `json:"reconfig_id"`
	Trigger    Trigger       `json:"trigger"`
	At         time.Time     `json:"at"`
	Duration   time.Duration `json:"duration_ns"`
	Err        string        `json:"error,omitempty"`
	PreHealth  Health        `json:"pre_health"`
	PostHealth Health        `json:"post_health"`
	PreHose    HoseAggregate `json:"pre_hose"`
	PostHose   HoseAggregate `json:"post_hose"`
	// Pairs is the allocation diff: absolute before/after circuits per
	// changed DC pair, composable in Seq order (core.ApplyDeltas).
	Pairs []core.PairDelta `json:"pairs,omitempty"`
	// Ducts projects the pair diff onto physical duct occupancy.
	Ducts []core.DuctDelta `json:"ducts,omitempty"`
	// Spans is the record's slice of the flight recorder: every event of
	// the reconfig's trace, captured before the ring forgets them.
	Spans []trace.Event `json:"spans,omitempty"`
}

// Summary is a Record with the heavy payloads reduced to counts — what
// a history listing shows per row.
type Summary struct {
	Seq          uint64        `json:"seq"`
	ReconfigID   uint64        `json:"reconfig_id"`
	Trigger      Trigger       `json:"trigger"`
	At           time.Time     `json:"at"`
	Duration     time.Duration `json:"duration_ns"`
	Err          string        `json:"error,omitempty"`
	PreHealth    Health        `json:"pre_health"`
	PostHealth   Health        `json:"post_health"`
	PreHose      HoseAggregate `json:"pre_hose"`
	PostHose     HoseAggregate `json:"post_hose"`
	PairsChanged int           `json:"pairs_changed"`
	DuctsTouched int           `json:"ducts_touched"`
	Spans        int           `json:"spans"`
}

// summarize reduces the record to its listing row.
func (r Record) summarize() Summary {
	return Summary{
		Seq:        r.Seq,
		ReconfigID: r.ReconfigID,
		Trigger:    r.Trigger,
		At:         r.At,
		Duration:   r.Duration,
		Err:        r.Err,
		PreHealth:  r.PreHealth, PostHealth: r.PostHealth,
		PreHose: r.PreHose, PostHose: r.PostHose,
		PairsChanged: len(r.Pairs),
		DuctsTouched: len(r.Ducts),
		Spans:        len(r.Spans),
	}
}

// shardCount must be a power of two; records are spread by ReconfigID so
// concurrent emitters (converge loop, chaos cycle, fleet regions sharing
// a lake in tests) rarely contend on one mutex.
const shardCount = 8

type shard struct {
	mu   sync.Mutex
	buf  []Record
	idx  map[uint64]int // reconfig ID -> slot
	next int
	n    int
}

// Config configures a Lake.
type Config struct {
	// Capacity bounds the number of retained records; non-positive
	// selects 512. The effective capacity is rounded up to a multiple of
	// the internal shard count.
	Capacity int
	// Path, when non-empty, enables JSONL persistence: appends are
	// mirrored to the file and New replays its tail on open.
	Path string
	// Registry receives the lake's iris_history_* metrics; nil disables
	// them.
	Registry *telemetry.Registry
}

// Lake is the history store. All methods are safe for concurrent use.
type Lake struct {
	shards [shardCount]shard
	seq    atomic.Uint64

	fileMu sync.Mutex
	file   *os.File

	appends    *telemetry.Counter
	evictions  *telemetry.Counter
	persistErr *telemetry.Counter
	replayed   *telemetry.Counter
	records    *telemetry.Gauge
}

// New opens a lake. With a Path configured it replays the file's tail
// (up to Capacity records, resuming the Seq counter past the highest
// replayed value) and keeps the file open for appends; replay problems
// are not fatal — a truncated line ends the replay and appending
// continues on the same file.
func New(cfg Config) (*Lake, error) {
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = 512
	}
	per := (capacity + shardCount - 1) / shardCount
	l := &Lake{}
	for i := range l.shards {
		l.shards[i].buf = make([]Record, per)
		l.shards[i].idx = make(map[uint64]int, per)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	l.appends = reg.Counter("iris_history_appends_total", "Reconfiguration records appended to the history lake.")
	l.evictions = reg.Counter("iris_history_evictions_total", "History records evicted by the bounded ring.")
	l.persistErr = reg.Counter("iris_history_persist_errors_total", "Failed JSONL persistence writes.")
	l.replayed = reg.Counter("iris_history_replayed_total", "Records replayed from the JSONL file at open.")
	l.records = reg.Gauge("iris_history_records", "Records currently retained in the history lake.")

	if cfg.Path != "" {
		l.replay(cfg.Path, capacity)
		f, err := os.OpenFile(cfg.Path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		l.file = f
	}
	return l, nil
}

// replay loads the tail of a JSONL file into the rings. Records keep
// their persisted Seq; the lake's counter resumes past the maximum so
// new appends sort after everything replayed.
func (l *Lake) replay(path string, capacity int) {
	f, err := os.Open(path)
	if err != nil {
		return // first run: nothing to replay
	}
	defer f.Close()
	var tail []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			break // truncated or corrupt tail: keep what parsed
		}
		tail = append(tail, rec)
		if len(tail) > capacity {
			tail = tail[1:]
		}
	}
	var maxSeq uint64
	for _, rec := range tail {
		if rec.Seq > maxSeq {
			maxSeq = rec.Seq
		}
		l.insert(rec)
		l.replayed.Inc()
	}
	if cur := l.seq.Load(); maxSeq > cur {
		l.seq.Store(maxSeq)
	}
	l.records.Set(float64(l.Len()))
}

// Append stores one record, assigning its Seq, and returns it. The hot
// path is a struct copy into a pre-allocated ring slot under one shard
// mutex — O(1), allocation-free at steady state. With persistence
// enabled the record is also written as one JSON line (failures count in
// iris_history_persist_errors_total and do not affect the in-memory
// append).
func (l *Lake) Append(rec Record) uint64 {
	rec.Seq = l.seq.Add(1)
	l.insert(rec)
	l.appends.Inc()
	l.records.Set(float64(l.Len()))
	if l.file != nil {
		l.persist(rec)
	}
	return rec.Seq
}

// insert places a record into its shard's ring, evicting the slot's
// previous occupant from the ID index when the ring is full. Two records
// may share a ReconfigID — a replayed journal holds the previous
// process's IDs, and the tracer of this one starts at 1 again — and the
// index then points at the newer: evicting the older must leave it be.
func (l *Lake) insert(rec Record) {
	sh := &l.shards[rec.ReconfigID&(shardCount-1)]
	sh.mu.Lock()
	if sh.n == len(sh.buf) {
		if old := sh.buf[sh.next].ReconfigID; sh.idx[old] == sh.next {
			delete(sh.idx, old)
		}
		l.evictions.Inc()
	}
	sh.buf[sh.next] = rec
	sh.idx[rec.ReconfigID] = sh.next
	sh.next++
	if sh.next == len(sh.buf) {
		sh.next = 0
	}
	if sh.n < len(sh.buf) {
		sh.n++
	}
	sh.mu.Unlock()
}

func (l *Lake) persist(rec Record) {
	b, err := json.Marshal(rec)
	if err != nil {
		l.persistErr.Inc()
		return
	}
	b = append(b, '\n')
	l.fileMu.Lock()
	_, err = l.file.Write(b)
	l.fileMu.Unlock()
	if err != nil {
		l.persistErr.Inc()
	}
}

// Close flushes and closes the persistence file, if any.
func (l *Lake) Close() error {
	if l == nil || l.file == nil {
		return nil
	}
	l.fileMu.Lock()
	defer l.fileMu.Unlock()
	err := l.file.Close()
	l.file = nil
	return err
}

// Get returns the record for a reconfig ID, locking only that ID's
// shard.
func (l *Lake) Get(id uint64) (Record, bool) {
	if l == nil {
		return Record{}, false
	}
	sh := &l.shards[id&(shardCount-1)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	slot, ok := sh.idx[id]
	if !ok {
		return Record{}, false
	}
	return sh.buf[slot], true
}

// Records snapshots every retained record in Seq order. Shards are
// locked one at a time, so a snapshot never blocks appends to other
// shards.
func (l *Lake) Records() []Record {
	if l == nil {
		return nil
	}
	out := make([]Record, 0, l.Len())
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		for j := 0; j < sh.n; j++ {
			out = append(out, sh.buf[j])
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Summaries returns the most recent n records (all of them when n <= 0)
// as listing rows, in ascending Seq order.
func (l *Lake) Summaries(n int) []Summary {
	recs := l.Records()
	if n > 0 && len(recs) > n {
		recs = recs[len(recs)-n:]
	}
	out := make([]Summary, len(recs))
	for i, r := range recs {
		out[i] = r.summarize()
	}
	return out
}

// Len returns the number of retained records.
func (l *Lake) Len() int {
	if l == nil {
		return 0
	}
	n := 0
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		n += sh.n
		sh.mu.Unlock()
	}
	return n
}

// Evicted returns how many records the bounded ring has dropped.
func (l *Lake) Evicted() int {
	if l == nil {
		return 0
	}
	return int(l.evictions.Value())
}
