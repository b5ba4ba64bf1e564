package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// meterRecord is a window's operation meters, kept per workload, seed,
// mode and window length so that a later run with the same inputs can be
// compared against it.
type meterRecord struct {
	Flows  int64       `json:"flows"`
	Totals meterTotals `json:"totals"`
}

// byteTolerance bounds how far the per-flow byte counts of two runs with
// the same inputs may differ. Big integers go on the wire in minimal
// big-endian form, so a value whose top byte happens to be zero (about 1
// in 256 draws of the unseeded protocol randomness) ships one byte
// shorter; operation and message counts carry no such noise and must
// match exactly.
const byteTolerance = 1e-3

// checkMeters compares the window's per-member-flow meter counts with the
// record of an earlier run on the same inputs, storing the record on the
// first run. It returns a description of any mismatch.
func checkMeters(o options, win *window) string {
	trace := 0
	if o.trace {
		trace = 1
	}
	dir := filepath.Join(o.out, "meters")
	path := filepath.Join(dir, fmt.Sprintf("%s-s%d-t%d-%ds.json", o.w.name, o.seed, trace, o.seconds))
	cur := meterRecord{Flows: win.flows, Totals: win.meters}
	raw, err := os.ReadFile(path)
	if err != nil {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Sprintf("meter record: %v", err)
		}
		data, _ := json.Marshal(cur)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return fmt.Sprintf("meter record: %v", err)
		}
		return ""
	}
	var old meterRecord
	if err := json.Unmarshal(raw, &old); err != nil {
		return fmt.Sprintf("meter record %s: %v", path, err)
	}
	a, b := cur.Totals, old.Totals
	exact := []struct {
		name   string
		cu, ol int64
	}{
		{"exp", a.Exp, b.Exp}, {"sign_gen", a.SignGen, b.SignGen}, {"sign_ver", a.SignVer, b.SignVer},
		{"sym_ops", a.SymOps, b.SymOps}, {"msg_tx", a.MsgTx, b.MsgTx}, {"msg_rx", a.MsgRx, b.MsgRx},
	}
	for _, f := range exact {
		if f.cu*old.Flows != f.ol*cur.Flows {
			return fmt.Sprintf("meter %s per member flow differs from an earlier run with the same seed: %d/%d vs %d/%d",
				f.name, f.cu, cur.Flows, f.ol, old.Flows)
		}
	}
	approx := []struct {
		name   string
		cu, ol int64
	}{
		{"bytes_tx", a.BytesTx, b.BytesTx}, {"bytes_rx", a.BytesRx, b.BytesRx},
		{"state_tx", a.StateTx, b.StateTx}, {"state_rx", a.StateRx, b.StateRx},
	}
	for _, f := range approx {
		x, y := div(float64(f.cu), float64(cur.Flows)), div(float64(f.ol), float64(old.Flows))
		if math.Abs(x-y) > byteTolerance*math.Max(math.Abs(x), math.Abs(y)) {
			return fmt.Sprintf("meter %s per member flow differs from an earlier run with the same seed: %g vs %g", f.name, x, y)
		}
	}
	return ""
}
