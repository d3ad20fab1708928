package fft

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"powerbench/internal/rng"
)

func TestIsPowerOfTwo(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPowerOfTwo(n) {
			t.Errorf("%d should be power of two", n)
		}
	}
	for _, n := range []int{0, -2, 3, 6, 1000} {
		if IsPowerOfTwo(n) {
			t.Errorf("%d should not be power of two", n)
		}
	}
}

func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(j) * float64(k) / float64(n)
			sum += x[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = sum
	}
	return out
}

func randomComplex(n int, seed float64) []complex128 {
	s := rng.NewStream(seed, rng.A)
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(s.Next()-0.5, s.Next()-0.5)
	}
	return out
}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 32, 128} {
		x := randomComplex(n, rng.DefaultSeed)
		want := naiveDFT(x)
		got := append([]complex128(nil), x...)
		Forward(got)
		for i := range want {
			if cmplx.Abs(got[i]-want[i]) > 1e-9*float64(n) {
				t.Errorf("n=%d: FFT[%d] = %v, want %v", n, i, got[i], want[i])
				break
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	for _, n := range []int{2, 16, 256, 1024} {
		x := randomComplex(n, 777)
		orig := append([]complex128(nil), x...)
		Forward(x)
		Inverse(x)
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-10 {
				t.Errorf("n=%d: round trip diverges at %d", n, i)
				break
			}
		}
	}
}

func TestParsevalTheorem(t *testing.T) {
	x := randomComplex(512, 31415)
	var timeEnergy float64
	for _, v := range x {
		timeEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	Forward(x)
	var freqEnergy float64
	for _, v := range x {
		freqEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(freqEnergy/float64(len(x))-timeEnergy) > 1e-8 {
		t.Errorf("Parseval violated: %v vs %v", freqEnergy/512, timeEnergy)
	}
}

func TestImpulseResponse(t *testing.T) {
	// FFT of a unit impulse is all ones.
	x := make([]complex128, 16)
	x[0] = 1
	Forward(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("impulse FFT[%d] = %v", i, v)
		}
	}
}

func TestNonPowerOfTwoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length 3 should panic")
		}
	}()
	Forward(make([]complex128, 3))
}

// Property: linearity — FFT(a·x + y) = a·FFT(x) + FFT(y).
func TestPropertyLinearity(t *testing.T) {
	f := func(seed uint32, scaleRaw int8) bool {
		n := 64
		a := complex(float64(scaleRaw)/16, 0)
		x := randomComplex(n, float64(seed%100000)+1)
		y := randomComplex(n, float64(seed%100000)+2)
		combo := make([]complex128, n)
		for i := range combo {
			combo[i] = a*x[i] + y[i]
		}
		Forward(combo)
		Forward(x)
		Forward(y)
		for i := range combo {
			want := a*x[i] + y[i]
			if cmplx.Abs(combo[i]-want) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFFT1K(b *testing.B) {
	x := randomComplex(1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Forward(x)
	}
}
