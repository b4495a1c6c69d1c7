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
	// Street, city, state, country; what follows a fourth segment is dropped.
	var rest [4]string
	kept := 0
	for more := true; more; {
		var seg string
		seg, s, more = strings.Cut(s, ",")
		seg = strings.TrimSpace(seg)
		switch {
		case seg == "":
		case isZip(seg):
			a.Zip = seg
		case kept < len(rest):
			rest[kept] = seg
			kept++
		}
	}
	if kept == 0 {
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
	a.Street, a.City, a.State, a.Country = first, rest[1], rest[2], rest[3]
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
