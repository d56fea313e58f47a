package dc

// Event is one state mutation of the data center, emitted to the journal
// callback when one is installed. Fields not applicable to a kind are -1.
type Event struct {
	Kind   EventKind
	VM     int // VM involved, or -1
	Server int // primary server (placement target, migration source, switch subject)
	Dest   int // migration destination, or -1
}

// Fields returns the event's journal fields: server always, vm and dest only
// when the kind has them. The journal adds the kind and the virtual time.
func (e Event) Fields() map[string]any {
	fields := map[string]any{"server": e.Server}
	if e.VM >= 0 {
		fields["vm"] = e.VM
	}
	if e.Dest >= 0 {
		fields["dest"] = e.Dest
	}
	return fields
}

// EventKind enumerates the journal events.
type EventKind string

// Journal event kinds.
const (
	EventPlace     EventKind = "place"
	EventRemove    EventKind = "remove"
	EventMigrate   EventKind = "migrate"
	EventActivate  EventKind = "activate"
	EventHibernate EventKind = "hibernate"
	// EventFail marks a server crash; every VM it hosted is journaled first
	// as its own EventCrashEvict (distinct from EventRemove so crash losses
	// never pollute the departure counters). EventRecover marks the repaired
	// server rejoining the wakeable pool.
	EventFail       EventKind = "fail"
	EventRecover    EventKind = "recover"
	EventCrashEvict EventKind = "crash-evict"
)

// SetJournal installs (or clears, with nil) the journal callback. The
// callback runs synchronously inside each mutation, after the state change
// has been applied; it must not mutate the data center.
func (d *DataCenter) SetJournal(fn func(Event)) { d.journal = fn }

// emit reports an event to the journal if one is installed, then re-verifies
// the invariants when checked mode is on (the event names the culprit in the
// panic message).
func (d *DataCenter) emit(e Event) {
	if d.journal != nil {
		d.journal(e)
	}
	if d.checked {
		d.verify(e)
	}
}
