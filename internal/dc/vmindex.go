package dc

// VM index
//
// Every Place, Remove, Migrate and HostOf looks a VM's host up by VM ID, so
// the index is a table keyed by ID rather than a hash map: an entry is 4
// bytes, a lookup is two loads, and placing a VM never rehashes. The table
// is paged — a directory of fixed-size pages, each allocated the first time
// one of its IDs is placed — so an ID space that starts high (the
// scalability experiment numbers its preloaded VMs from 1,000,000) costs one
// page, not a million entries. Pages are never freed: a removed VM's entry
// is zeroed and its page stays for the next ID in its range.

const (
	vmPageBits = 12
	vmPageSize = 1 << vmPageBits // entries per page

	// maxVMID is the largest ID the index holds: VM IDs live in [0, 2^31).
	maxVMID = 1<<31 - 1
)

// vmIndex maps VM ID → host. An entry holds 1 + the hosting server's ID, so
// the zero value means unplaced. placed counts the non-zero entries; set and
// clear are its only writers, so an entry left behind for a VM no server
// hosts shows up as placed exceeding the hosted count (CheckInvariants).
type vmIndex struct {
	pages  []*[vmPageSize]int32
	placed int
}

// entry returns vmID's slot, or nil when its page was never allocated. Any
// ID outside [0, maxVMID] lands past the directory, which never grows that
// far, so it has no slot either.
func (x *vmIndex) entry(vmID int) *int32 {
	p := uint(vmID) >> vmPageBits
	if p >= uint(len(x.pages)) || x.pages[p] == nil {
		return nil
	}
	return &x.pages[p][vmID&(vmPageSize-1)]
}

// host returns the ID of the server hosting vmID, or -1 when it is unplaced.
func (x *vmIndex) host(vmID int) int {
	if e := x.entry(vmID); e != nil {
		return int(*e) - 1
	}
	return -1
}

// set records server as vmID's host; vmID must be in [0, maxVMID].
func (x *vmIndex) set(vmID, server int) {
	p := vmID >> vmPageBits
	if p >= len(x.pages) {
		x.pages = append(x.pages, make([]*[vmPageSize]int32, p+1-len(x.pages))...)
	}
	if x.pages[p] == nil {
		x.pages[p] = new([vmPageSize]int32)
	}
	e := &x.pages[p][vmID&(vmPageSize-1)]
	if *e == 0 {
		x.placed++
	}
	*e = int32(server + 1)
}

// clear marks vmID unplaced.
func (x *vmIndex) clear(vmID int) {
	if e := x.entry(vmID); e != nil && *e != 0 {
		*e = 0
		x.placed--
	}
}
