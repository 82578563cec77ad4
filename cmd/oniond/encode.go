package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/kb"
	"repro/internal/obs"
	"repro/internal/query"
)

// encodeQueryResponse writes the /query body for res in one pass:
//
//	{"vars":[…],"rows":[[{"kind":…,"value":…},…],…],"outcome":…,"stats":{…},"trace":{…}}
//
// followed by a newline. The bytes are exactly what encoding/json would
// produce for queryResponse, compacted: cells are appended straight from
// res.Rows (a value is one of three kinds, so no reflection is needed per
// cell), and only Stats and the optional trace go through json.Marshal.
// trace nil omits the member.
func encodeQueryResponse(res *query.Result, outcome string, trace *obs.Span) ([]byte, error) {
	stats, err := json.Marshal(res.Stats)
	if err != nil {
		return nil, fmt.Errorf("encoding stats: %w", err)
	}
	var traceJSON []byte
	if trace != nil {
		if traceJSON, err = json.Marshal(trace); err != nil {
			return nil, fmt.Errorf("encoding trace: %w", err)
		}
	}
	b := make([]byte, 0, responseSize(res)+len(outcome)+len(stats)+len(traceJSON))
	b = append(b, `{"vars":`...)
	if res.Vars == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, v := range res.Vars {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, v)
		}
		b = append(b, ']')
	}
	b = append(b, `,"rows":[`...)
	for i, row := range res.Rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, v := range row {
			if j > 0 {
				b = append(b, ',')
			}
			b = appendValue(b, v)
		}
		b = append(b, ']')
	}
	b = append(b, `],"outcome":`...)
	b = appendJSONString(b, outcome)
	b = append(b, `,"stats":`...)
	b = append(b, stats...)
	if traceJSON != nil {
		b = append(b, `,"trace":`...)
		b = append(b, traceJSON...)
	}
	return append(b, "}\n"...), nil
}

// responseSize sizes the body before stats and trace so the buffer is
// allocated once: room for every escape-free string cell, and 24 bytes
// per number (17 significant digits with sign, point and exponent).
// Escapes or a wider number only make append grow the slice.
func responseSize(res *query.Result) int {
	n := 64
	for _, v := range res.Vars {
		n += len(v) + 3
	}
	for _, row := range res.Rows {
		n += 3
		for _, v := range row {
			if v.Kind == kb.KindNumber {
				n += len(`{"kind":"number","value":},`) + 24
			} else {
				n += len(`{"kind":"string","value":""},`) + len(v.Str)
			}
		}
	}
	return n
}

// appendValue appends v's wire form (valueJSON). A non-finite number has
// no JSON form and goes out as null, which decodeValue refuses.
func appendValue(b []byte, v kb.Value) []byte {
	switch v.Kind {
	case kb.KindNumber:
		b = append(b, `{"kind":"number","value":`...)
		b = appendJSONFloat(b, v.Num)
	case kb.KindString:
		b = append(b, `{"kind":"string","value":`...)
		b = appendJSONString(b, v.Str)
	default:
		b = append(b, `{"kind":"term","value":`...)
		b = appendJSONString(b, v.Str)
	}
	return append(b, '}')
}

// appendJSONFloat appends f as encoding/json formats a float64: 'f'
// notation, switching to 'e' below 1e-6 and from 1e21 with a one-digit
// negative exponent unpadded (1e-07 → 1e-7). NaN and ±Inf append null.
func appendJSONFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return append(b, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string escaped the way
// encoding/json escapes it: `"` and `\`, the control characters (\b \f
// \n \r \t by name, the rest as \u00XX), the HTML-sensitive < > &, the
// JavaScript line terminators U+2028/U+2029, and each byte of invalid
// UTF-8 as \ufffd.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
