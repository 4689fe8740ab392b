package probe

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/config"
)

// NDJSON stream schema (one JSON object per line, in stream order):
//
//	{"type":"meta","version":1,"interval":4096,
//	 "annotations":{"kernel":"needle","config":"..."}}
//	{"type":"interval","start":0,"end":4096,"issued":3071,
//	 "stalls":{"barrier":0,...},"cache_probes":412,"cache_hits":301,
//	 "dram_bytes":14208}
//	... one interval record per completed sampling window ...
//	{"type":"summary","start":0,"slots":188416,"issued":150221,
//	 "stalls":{...},"bank_access":[32 ints],"bank_conflict":[32 ints],
//	 "cache_probes":...,"cache_hits":...,"dram_bytes":...}
//
// Records are hand-encoded with a fixed field order so a run's stream is
// byte-deterministic; Decode accepts any field order.

// ndjsonVersion is the stream schema version of this package.
const ndjsonVersion = 1

// write sends one encoded line, latching the first error.
func (p *Probe) write(line []byte) {
	if p.werr != nil {
		return
	}
	if _, err := p.out.Write(line); err != nil {
		p.werr = err
	}
}

// appendStalls encodes a stall breakdown object in StallReason order.
func appendStalls(b []byte, stalls *[NumStallReasons]int64) []byte {
	b = append(b, `"stalls":{`...)
	for i, n := range stalls {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, stallNames[i]...)
		b = append(b, `":`...)
		b = strconv.AppendInt(b, n, 10)
	}
	return append(b, '}')
}

// appendInts encodes an int64 array value.
func appendInts(b []byte, vals *[config.NumBanks]int64) []byte {
	b = append(b, '[')
	for i, v := range vals {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, v, 10)
	}
	return append(b, ']')
}

func (p *Probe) writeMeta() {
	b := p.encBuf[:0]
	b = append(b, `{"type":"meta","version":`...)
	b = strconv.AppendInt(b, ndjsonVersion, 10)
	b = append(b, `,"interval":`...)
	b = strconv.AppendInt(b, p.interval, 10)
	b = append(b, `,"annotations":{`...)
	for i, kv := range p.meta {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, kv.key)
		b = append(b, ':')
		b = appendJSONString(b, kv.value)
	}
	b = append(b, "}}\n"...)
	p.encBuf = b
	p.write(b)
}

func (p *Probe) writeInterval(iv *Interval) {
	b := p.encBuf[:0]
	b = append(b, `{"type":"interval","start":`...)
	b = strconv.AppendInt(b, iv.Start, 10)
	b = append(b, `,"end":`...)
	b = strconv.AppendInt(b, iv.End, 10)
	b = append(b, `,"issued":`...)
	b = strconv.AppendInt(b, iv.Issued, 10)
	b = append(b, ',')
	b = appendStalls(b, &iv.Stalls)
	b = append(b, `,"cache_probes":`...)
	b = strconv.AppendInt(b, iv.CacheProbes, 10)
	b = append(b, `,"cache_hits":`...)
	b = strconv.AppendInt(b, iv.CacheHits, 10)
	b = append(b, `,"dram_bytes":`...)
	b = strconv.AppendInt(b, iv.DRAMBytes, 10)
	b = append(b, "}\n"...)
	p.encBuf = b
	p.write(b)
}

func (p *Probe) writeSummary() {
	cp, ch, db := p.memTotals()
	b := p.encBuf[:0]
	b = append(b, `{"type":"summary","start":`...)
	b = strconv.AppendInt(b, p.startCycle, 10)
	b = append(b, `,"slots":`...)
	b = strconv.AppendInt(b, p.TotalSlots(), 10)
	b = append(b, `,"issued":`...)
	b = strconv.AppendInt(b, p.issued, 10)
	b = append(b, ',')
	b = appendStalls(b, &p.stalls)
	b = append(b, `,"bank_access":`...)
	b = appendInts(b, &p.bankAccess)
	b = append(b, `,"bank_conflict":`...)
	b = appendInts(b, &p.bankConflict)
	b = append(b, `,"cache_probes":`...)
	b = strconv.AppendInt(b, cp, 10)
	b = append(b, `,"cache_hits":`...)
	b = strconv.AppendInt(b, ch, 10)
	b = append(b, `,"dram_bytes":`...)
	b = strconv.AppendInt(b, db, 10)
	b = append(b, "}\n"...)
	p.encBuf = b
	p.write(b)
}

// writeStreams emits one stream record per declared stream, after the
// summary. A run of fewer than two streams emits nothing, keeping its
// NDJSON byte-identical to the version-1 single-kernel schema:
//
//	{"type":"stream","index":0,"name":"fft","issued":...,"stalls":{...},
//	 "cache_probes":...,"cache_hits":...,"cache_misses":...,
//	 "dram_bytes":...}
func (p *Probe) writeStreams() {
	if len(p.streamNames) < 2 {
		return
	}
	for i := range p.streamNames {
		var cp, ch, cm, db int64
		if i < len(p.counters) {
			c := p.counters[i]
			cp, ch, cm, db = c.CacheProbes, c.CacheHits, c.CacheMisses, c.DRAMBytes()
		}
		t := &p.streamTallies[i]
		b := p.encBuf[:0]
		b = append(b, `{"type":"stream","index":`...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `,"name":`...)
		b = appendJSONString(b, p.streamNames[i])
		b = append(b, `,"issued":`...)
		b = strconv.AppendInt(b, t.issued, 10)
		b = append(b, ',')
		b = appendStalls(b, &t.stalls)
		b = append(b, `,"cache_probes":`...)
		b = strconv.AppendInt(b, cp, 10)
		b = append(b, `,"cache_hits":`...)
		b = strconv.AppendInt(b, ch, 10)
		b = append(b, `,"cache_misses":`...)
		b = strconv.AppendInt(b, cm, 10)
		b = append(b, `,"dram_bytes":`...)
		b = strconv.AppendInt(b, db, 10)
		b = append(b, "}\n"...)
		p.encBuf = b
		p.write(b)
	}
}

// appendJSONString appends a JSON-quoted string. Annotation keys and
// values are short config/kernel names; anything needing escapes goes
// through the standard encoder.
func appendJSONString(b []byte, s string) []byte {
	plain := true
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= 0x80 {
			plain = false
			break
		}
	}
	if plain {
		b = append(b, '"')
		b = append(b, s...)
		return append(b, '"')
	}
	enc, _ := json.Marshal(s)
	return append(b, enc...)
}

// Summary is the decoded whole-run totals of an NDJSON profile.
type Summary struct {
	Start        int64
	Slots        int64
	Issued       int64
	Stalls       [NumStallReasons]int64
	BankAccess   [config.NumBanks]int64
	BankConflict [config.NumBanks]int64
	CacheProbes  int64
	CacheHits    int64
	DRAMBytes    int64
}

// StreamSummary is one co-resident stream's share of the profile, from
// a decoded stream record. The per-stream issued and stall totals sum
// exactly to the aggregate Summary across streams.
type StreamSummary struct {
	// Index is the stream's index on the SM; Name labels it (the kernel
	// name).
	Index int
	Name  string
	// Issued and Stalls are the stream's share of the issue slots.
	Issued int64
	Stalls [NumStallReasons]int64
	// CacheProbes, CacheHits, CacheMisses, and DRAMBytes are the
	// stream's memory-system totals.
	CacheProbes, CacheHits, CacheMisses int64
	DRAMBytes                           int64
}

// Profile is a decoded NDJSON stream.
type Profile struct {
	// Version is the stream schema version from the meta record.
	Version int
	// IntervalCycles is the sampling interval from the meta record.
	IntervalCycles int64
	// Annotations are the meta record's key/value pairs.
	Annotations map[string]string
	// Intervals are the sampling windows, in stream order.
	Intervals []Interval
	// Summary is the whole-run record, nil if the stream was truncated
	// before the run ended.
	Summary *Summary
	// Streams are the per-stream records of a multi-tenant run, in
	// stream-index order; empty for single-kernel profiles.
	Streams []StreamSummary
}

// record is the union wire form of every NDJSON line.
type record struct {
	Type         string            `json:"type"`
	Version      int               `json:"version"`
	Interval     int64             `json:"interval"`
	Annotations  map[string]string `json:"annotations"`
	Start        int64             `json:"start"`
	End          int64             `json:"end"`
	Slots        int64             `json:"slots"`
	Issued       int64             `json:"issued"`
	Stalls       map[string]int64  `json:"stalls"`
	BankAccess   []int64           `json:"bank_access"`
	BankConflict []int64           `json:"bank_conflict"`
	CacheProbes  int64             `json:"cache_probes"`
	CacheHits    int64             `json:"cache_hits"`
	CacheMisses  int64             `json:"cache_misses"`
	DRAMBytes    int64             `json:"dram_bytes"`
	Index        int               `json:"index"`
	Name         string            `json:"name"`
}

// reasonIndex maps an NDJSON stall key back to its StallReason.
func reasonIndex(name string) (StallReason, bool) {
	for i, n := range stallNames {
		if n == name {
			return StallReason(i), true
		}
	}
	return 0, false
}

func decodeStalls(m map[string]int64, line int) ([NumStallReasons]int64, error) {
	var out [NumStallReasons]int64
	for name, v := range m {
		r, ok := reasonIndex(name)
		if !ok {
			return out, fmt.Errorf("probe: line %d: unknown stall reason %q", line, name)
		}
		out[r] = v
	}
	return out, nil
}

func copyBanks(dst *[config.NumBanks]int64, src []int64, what string, line int) error {
	if src == nil {
		return nil
	}
	if len(src) != config.NumBanks {
		return fmt.Errorf("probe: line %d: %s has %d banks, want %d", line, what, len(src), config.NumBanks)
	}
	copy(dst[:], src)
	return nil
}

// Decode reads an NDJSON profile stream back into a Profile. It accepts
// exactly the records this package emits and fails on unknown record
// types or malformed lines.
func Decode(r io.Reader) (*Profile, error) {
	p := &Profile{Annotations: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("probe: line %d: %w", line, err)
		}
		switch rec.Type {
		case "meta":
			p.Version = rec.Version
			p.IntervalCycles = rec.Interval
			for k, v := range rec.Annotations {
				p.Annotations[k] = v
			}
		case "interval":
			stalls, err := decodeStalls(rec.Stalls, line)
			if err != nil {
				return nil, err
			}
			p.Intervals = append(p.Intervals, Interval{
				Start: rec.Start, End: rec.End, Issued: rec.Issued,
				Stalls:      stalls,
				CacheProbes: rec.CacheProbes, CacheHits: rec.CacheHits,
				DRAMBytes: rec.DRAMBytes,
			})
		case "summary":
			stalls, err := decodeStalls(rec.Stalls, line)
			if err != nil {
				return nil, err
			}
			s := &Summary{
				Start: rec.Start, Slots: rec.Slots, Issued: rec.Issued,
				Stalls:      stalls,
				CacheProbes: rec.CacheProbes, CacheHits: rec.CacheHits,
				DRAMBytes: rec.DRAMBytes,
			}
			if err := copyBanks(&s.BankAccess, rec.BankAccess, "bank_access", line); err != nil {
				return nil, err
			}
			if err := copyBanks(&s.BankConflict, rec.BankConflict, "bank_conflict", line); err != nil {
				return nil, err
			}
			p.Summary = s
		case "stream":
			stalls, err := decodeStalls(rec.Stalls, line)
			if err != nil {
				return nil, err
			}
			p.Streams = append(p.Streams, StreamSummary{
				Index: rec.Index, Name: rec.Name, Issued: rec.Issued,
				Stalls:      stalls,
				CacheProbes: rec.CacheProbes, CacheHits: rec.CacheHits,
				CacheMisses: rec.CacheMisses, DRAMBytes: rec.DRAMBytes,
			})
		default:
			return nil, fmt.Errorf("probe: line %d: unknown record type %q", line, rec.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("probe: reading stream: %w", err)
	}
	return p, nil
}
