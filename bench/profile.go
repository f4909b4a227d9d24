package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuProfile is a pprof CPU profile reduced to what attribution needs: the
// weight of each sample and the functions on its stack.
type cpuProfile struct {
	samples []profSample
}

type profSample struct {
	weight int64    // CPU nanoseconds
	funcs  []string // every function on the stack, inlined frames included
}

// merge adds another profile's samples (the two replicas of a fleet).
func (p *cpuProfile) merge(o *cpuProfile) { p.samples = append(p.samples, o.samples...) }

// share is the fraction of CPU time whose stack contains a function that
// match accepts: the cumulative share of a layer, callees included.
func (p *cpuProfile) share(match func(fn string) bool) float64 {
	var hit, total int64
	for _, s := range p.samples {
		total += s.weight
		for _, f := range s.funcs {
			if match(f) {
				hit += s.weight
				break
			}
		}
	}
	return ratio(float64(hit), float64(total))
}

// cpuLayers attributes CPU time to the layers named in README.md.
var cpuLayers = []struct {
	metric string
	match  func(string) bool
}{
	{"setindex.cpu_share", prefix("verifas/internal/setindex.")},
	{"symbolic.succ_cpu_share", prefix("verifas/internal/symbolic.(*TaskSystem).Successors")},
	{"symbolic.intern_cpu_share", prefix("verifas/internal/symbolic.(*Interner).")},
	{"maxflow.cpu_share", prefix("verifas/internal/maxflow.")},
	{"core.rr_cpu_share", prefix("verifas/internal/core.repeatedReachability")},
	{"runtime.gc_cpu_share", oneOf("runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge")},
}

func prefix(p string) func(string) bool {
	return func(fn string) bool { return strings.HasPrefix(fn, p) }
}

func oneOf(names ...string) func(string) bool {
	return func(fn string) bool {
		for _, n := range names {
			if fn == n {
				return true
			}
		}
		return false
	}
}

var errProto = errors.New("malformed profile")

// parseProfile decodes a gzipped pprof profile (profile.proto) as
// runtime/pprof writes it. Only samples, locations, functions and the
// string table are read.
func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	var (
		strs     []string
		samples  []rawSample
		funcName = map[uint64]uint64{}   // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids
	)
	err = fields(raw, func(num, typ int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := fields(b, func(num, typ int, v uint64, b []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = appendInts(s.locs, typ, v, b)
				case 2:
					s.vals, err = appendInts(s.vals, typ, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num, typ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num, typ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := fields(b, func(num, typ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.vals) == 0 {
			return nil, fmt.Errorf("profile: %w: sample without values", errProto)
		}
		ps := profSample{weight: int64(s.vals[len(s.vals)-1])}
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				if i := funcName[f]; i < uint64(len(strs)) {
					ps.funcs = append(ps.funcs, strs[i])
				}
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// fields calls fn for each field of a protobuf message: v carries varint
// and fixed-width values, b the payload of length-delimited ones.
func fields(msg []byte, fn func(num, typ int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		num, typ := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch typ {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return errProto
		}
		if err := fn(num, typ, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendInts decodes one occurrence of a repeated integer field, which the
// encoder writes either packed (one length-delimited run) or one at a time.
func appendInts(dst []uint64, typ int, v uint64, b []byte) ([]uint64, error) {
	if typ == 0 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errProto
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}
