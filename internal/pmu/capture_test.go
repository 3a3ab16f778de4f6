package pmu

import (
	"testing"
	"unsafe"
)

// TestCaptureRegs pins the register rule both recorders follow: a sample
// carries nil unless some register is non-zero, and a non-zero file is
// copied at overflow time — the simulator hands over its live register
// file and keeps writing it.
func TestCaptureRegs(t *testing.T) {
	if got := unsafe.Sizeof(Sample{}); got != 32 {
		t.Fatalf("Sample is %d bytes, want 32 (the register file out of line)", got)
	}
	recorders := map[string]func() Recorder{
		"pebs": func() Recorder { return NewPEBS(PEBSConfig{}) },
		"soft": func() Recorder { return NewSoftSampler(SoftSamplerConfig{}) },
	}
	for name, mk := range recorders {
		t.Run(name, func(t *testing.T) {
			rec := mk()
			var zero, live [NumRegs]uint64
			live[R13] = 7
			rec.Overflow(UopsRetired, Ctx{TSC: 1})
			rec.Overflow(UopsRetired, Ctx{TSC: 2, Regs: &zero})
			rec.Overflow(UopsRetired, Ctx{TSC: 3, Regs: &live})
			live[R13], live[0] = 8, 9 // the program runs on
			s := rec.Samples()
			if len(s) != 3 {
				t.Fatalf("%d samples, want 3", len(s))
			}
			if s[0].Regs != nil {
				t.Errorf("nil register file captured as %v, want nil", *s[0].Regs)
			}
			if s[1].Regs != nil {
				t.Errorf("all-zero register file captured as %p, want nil", s[1].Regs)
			}
			want := [NumRegs]uint64{R13: 7}
			if s[2].Regs == nil || *s[2].Regs != want || s[2].Regs == &live {
				t.Errorf("live register file captured as %v, want a copy of %v", s[2].Regs, want)
			}
			if s[0].Reg(R13) != 0 || s[2].Reg(R13) != 7 {
				t.Errorf("Reg(R13) = %d, %d; want 0, 7", s[0].Reg(R13), s[2].Reg(R13))
			}
		})
	}
}
