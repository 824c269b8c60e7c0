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

// stages maps the kernel's pipeline stages onto the functions that do
// their work. A profile sample belongs to the first stage found walking its
// stack from the leaf: a cache access made by issue counts as cache, trace
// generation made by fetch counts as fetch.
var stages = []struct {
	name     string
	prefixes []string
}{
	{"cache", []string{"dcra/internal/cache."}},
	{"policy", []string{"dcra/internal/core.", "dcra/internal/policy.", "dcra/internal/cpu.RankByICount"}},
	{"fetch", []string{"dcra/internal/trace.", "dcra/internal/branch.", "dcra/internal/cpu.(*Machine).fetch", "dcra/internal/cpu.(*frontEnd)."}},
	{"dispatch", []string{"dcra/internal/cpu.(*Machine).dispatch", "dcra/internal/cpu.(*Machine).tryDispatch", "dcra/internal/cpu.(*Machine).resolveOperand", "dcra/internal/cpu.(*regFile)."}},
	{"issue", []string{"dcra/internal/cpu.(*Machine).issue", "dcra/internal/cpu.(*issueQueue)."}},
	{"events", []string{"dcra/internal/cpu.(*Machine).processEvents", "dcra/internal/cpu.(*Machine).deliver", "dcra/internal/cpu.(*Machine).complete", "dcra/internal/cpu.(*eventQueue)."}},
	{"commit", []string{"dcra/internal/cpu.(*Machine).commit"}},
}

func stageOf(fn string) string {
	for _, st := range stages {
		for _, p := range st.prefixes {
			if strings.HasPrefix(fn, p) {
				return st.name
			}
		}
	}
	return ""
}

// stageShares reads a gzipped pprof CPU profile and returns each stage's
// share of all samples.
func stageShares(gz []byte) (map[string]float64, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		n := s.values[0]
		total += n
	stack:
		for _, loc := range s.locations {
			for _, fn := range p.locations[loc] {
				if st := stageOf(p.strings[p.functions[fn]]); st != "" {
					counts[st] += n
					break stack
				}
			}
		}
	}
	shares := map[string]float64{}
	for _, st := range stages {
		if total > 0 {
			shares[st.name] = float64(counts[st.name]) / float64(total)
		}
	}
	return shares, nil
}

// profile is the part of a pprof profile the stage split needs.
type profile struct {
	samples   []profSample
	locations map[uint64][]uint64 // location id -> function ids, leaf first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type profSample struct {
	locations []uint64 // leaf first
	values    []int64
}

// Field numbers of profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileString   = 6
	fSampleLocation  = 1
	fSampleValue     = 2
	fLocationID      = 1
	fLocationLine    = 4
	fLineFunction    = 1
	fFunctionID      = 1
	fFunctionName    = 2
)

func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err = eachField(data, func(f int, v uint64, b []byte) error {
		switch f {
		case fProfileSample:
			var s profSample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case fSampleLocation:
					s.locations = appendVarints(s.locations, v, b)
				case fSampleValue:
					for _, x := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case fProfileString:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.functions {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, fmt.Errorf("profile: function name index %d out of range", idx)
		}
	}
	return p, nil
}

var errProto = errors.New("profile: malformed protobuf")

// eachField walks one protobuf message, handing each field's number and
// either its varint value or its length-delimited bytes to fn.
func eachField(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errProto
		}
		data = data[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errProto
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errProto
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errProto
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errProto
			}
			data = data[4:]
		default:
			return errProto
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one value when
// unpacked (b nil), every varint of b when packed.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
