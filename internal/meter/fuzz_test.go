package meter

import (
	"math"
	"testing"
)

// FuzzUnmarshalCSV checks the WTViewer-CSV parser never panics and that a
// successful parse round-trips through MarshalCSV.
func FuzzUnmarshalCSV(f *testing.F) {
	f.Add("time_s,power_w\n0.000,100.0000\n1.000,101.5000\n")
	f.Add("header\n")
	f.Add("")
	f.Add("a,b\nx,y\n")
	f.Add("t,w\n1,2\n3\n")
	f.Fuzz(func(t *testing.T, input string) {
		log, err := UnmarshalCSV([]byte(input))
		if err != nil {
			return
		}
		re, err := UnmarshalCSV(MarshalCSV(log))
		if err != nil {
			t.Fatalf("re-parse of own output failed: %v", err)
		}
		if len(re) != len(log) {
			t.Fatalf("round trip changed length: %d vs %d", len(re), len(log))
		}
	})
}

// FuzzRepairDifferential runs Repair against the sort-based reference on
// traces decoded from the fuzz input: duplicates, NaN/Inf, gaps, spikes,
// repeated values, ascending and descending runs, out-of-order stamps and
// signed zeros, at lengths from 0 to 4096. The reports and timestamps must
// be equal and every repaired reading must compare ==; readings must also
// be bit-equal unless the input holds a negative zero, whose order against
// +0 is unspecified even between two sorts.
func FuzzRepairDifferential(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{0, 10, 0, 20, 1, 0, 3, 0, 5, 4, 2, 3, 0, 7}, uint8(3), uint8(1))
	f.Add([]byte{7, 200, 8, 200, 6, 0, 9, 1, 4, 0, 4, 1, 11, 40}, uint8(1), uint8(6))
	f.Add([]byte{12, 255, 7, 63, 13, 255, 5, 90, 9, 0}, uint8(4), uint8(255))
	f.Fuzz(func(t *testing.T, data []byte, interval, window uint8) {
		log, opts, negZero := fuzzTrace(data, interval, window)
		want, wantRep := referenceRepair(log, opts)
		got, gotRep := Repair(log, opts)
		if gotRep != wantRep {
			t.Fatalf("report %+v, reference %+v", gotRep, wantRep)
		}
		if (got == nil) != (want == nil) || len(got) != len(want) {
			t.Fatalf("%d samples (nil %t), reference %d (nil %t)", len(got), got == nil, len(want), want == nil)
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.T != w.T || g.Watts != w.Watts {
				t.Fatalf("sample %d = %+v, reference %+v", i, g, w)
			}
			if !negZero && math.Float64bits(g.Watts) != math.Float64bits(w.Watts) {
				t.Fatalf("sample %d watts %v not bit-equal to reference %v", i, g.Watts, w.Watts)
			}
		}
	})
}

// fuzzTrace decodes fuzz bytes, two per step (an op and its argument), into
// a meter log and repair options. It reports whether the log holds a
// negative zero reading.
func fuzzTrace(data []byte, intervalSel, window uint8) ([]Sample, RepairOpts, bool) {
	const maxLen = 4096
	interval := [...]float64{1, 0.25, 0.5, 2, 1}[intervalSel%5]
	var log []Sample
	t, w, negZero := 0.0, 200.0, false
	emit := func(ts, ws float64) {
		if len(log) < maxLen {
			log = append(log, Sample{T: ts, Watts: ws})
			negZero = negZero || ws == 0 && math.Signbit(ws)
		}
	}
	for p := 0; p+1 < len(data) && len(log) < maxLen; p += 2 {
		op, v := data[p], float64(data[p+1])
		switch op % 14 {
		case 0: // ordinary reading
			t += interval
			w = 200 + v*0.37 // not dyadic: interpolation rounds
			emit(t, w)
		case 1: // duplicate row, or one well inside half an interval
			emit(t+interval*v/1024, w)
		case 2: // sampling gap
			t += interval * (2 + float64(int(v)%8))
			emit(t, w)
		case 3: // NaN reading
			t += interval
			emit(t, math.NaN())
		case 4: // non-finite reading or timestamp
			t += interval
			switch int(v) % 3 {
			case 0:
				emit(t, math.Inf(1))
			case 1:
				emit(t, math.Inf(-1))
			default:
				emit(math.Inf(1), w)
			}
		case 5: // spike
			t += interval
			emit(t, w*(3+v/8))
		case 6: // repeated value
			t += interval
			emit(t, w)
		case 7, 8: // ascending or descending run of readings
			step := 0.1
			if op%14 == 8 {
				step = -0.3
			}
			for k := 0; k <= int(v)%64; k++ {
				t += interval
				w += step
				emit(t, w)
			}
		case 9: // zero reading, either sign
			t += interval
			emit(t, math.Copysign(0, float64(int(v)%2)-0.5))
		case 10: // jittered spacing
			t += interval * (0.5 + v/256)
			emit(t, w)
		case 11: // out-of-order timestamp
			emit(t-interval*v/16, w)
		case 12: // long run of one level, for large windows
			for k := 0; k < 16*int(v); k++ {
				t += interval
				emit(t, w)
			}
		case 13: // negative reading
			t += interval
			emit(t, -v)
		}
	}
	opts := RepairOpts{IntervalSec: interval}
	if intervalSel%5 == 4 {
		opts.IntervalSec = 0 // the 1 Hz default
	}
	if window%2 == 1 {
		// An explicit window that may start before and end after the
		// samples, or cut into them.
		opts.Start = interval * (float64(window%16) - 8)
		opts.End = t + interval*(float64(window/16)-8)
	}
	if window&0x40 != 0 {
		opts.MADK = 3
		opts.MinSigma = 0.01
	}
	return log, opts, negZero
}
