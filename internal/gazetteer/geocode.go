package gazetteer

import (
	"strconv"
	"strings"
)

// Address is a structured postal address. Any component other than Street may
// be empty; the paper notes that real-table addresses are frequently partial
// ("just the street number and name and, possibly, the zip code").
type Address struct {
	StreetNumber int
	Street       string
	City         string
	State        string
	Country      string
	Zip          string
}

// Format renders the address in the comma-separated convention used by the
// synthetic tables: "12 Main Street, Springfield, IL, USA".
func (a Address) Format() string {
	var parts []string
	if a.Street != "" {
		s := a.Street
		if a.StreetNumber > 0 {
			s = strconv.Itoa(a.StreetNumber) + " " + s
		}
		parts = append(parts, s)
	}
	if a.City != "" {
		parts = append(parts, a.City)
	}
	if a.State != "" {
		parts = append(parts, a.State)
	}
	if a.Zip != "" {
		parts = append(parts, a.Zip)
	}
	if a.Country != "" {
		parts = append(parts, a.Country)
	}
	return strings.Join(parts, ", ")
}

// ParseAddress splits a comma-separated address string into its raw segments,
// extracting a leading street number from the first segment and recognising
// all-digit segments as zip codes.
func ParseAddress(s string) Address {
	var a Address
	segs := strings.Split(s, ",")
	rest := segs[:0]
	for _, seg := range segs {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			continue
		}
		if isZip(seg) {
			a.Zip = seg
			continue
		}
		rest = append(rest, seg)
	}
	if len(rest) == 0 {
		return a
	}
	first := rest[0]
	// Only an all-digit leading token with a positive value is a street
	// number; "−12 Main", "+12 Main" and "0 Main" keep their first token
	// as part of the street name. (Format renders only positive numbers,
	// so anything else would break the parse∘format fixed point the fuzz
	// target enforces.)
	if i := strings.IndexByte(first, ' '); i > 0 && allDigits(first[:i]) {
		if n, err := strconv.Atoi(first[:i]); err == nil && n > 0 {
			a.StreetNumber = n
			first = strings.TrimSpace(first[i+1:])
		}
	}
	a.Street = first
	if len(rest) > 1 {
		a.City = rest[1]
	}
	if len(rest) > 2 {
		a.State = rest[2]
	}
	if len(rest) > 3 {
		a.Country = rest[3]
	}
	return a
}

func isZip(s string) bool {
	return len(s) >= 4 && allDigits(s)
}

func allDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return len(s) > 0
}
