package workflows

import "verifas/internal/has"

// Entry is one workflow of the real-style suite.
type Entry struct {
	Name  string
	Build func() *has.System
}

// All returns the full suite, the stand-in for the paper's 32 rewritten
// BPMN workflows (the corpus itself is unavailable offline; see DESIGN.md).
// Each workflow has a realistic acyclic schema with foreign keys,
// data-aware service conditions, and — for about half of them — updatable
// artifact relations.
func All() []Entry {
	return []Entry{
		{"OrderFulfillment", func() *has.System { return OrderFulfillment(false) }},
		{"OrderFulfillmentBuggy", func() *has.System { return OrderFulfillment(true) }},
		{"LoanOrigination", LoanOrigination},
		{"InvoiceProcessing", InvoiceProcessing},
		{"ExpenseApproval", ExpenseApproval},
		{"AccountOpening", AccountOpening},
		{"SupportTicketing", SupportTicketing},
		{"InsuranceClaim", InsuranceClaim},
		{"WarrantyRepair", WarrantyRepair},
		{"CarRental", CarRental},
		{"TravelBooking", TravelBooking},
		{"Procurement", Procurement},
		{"ReturnMerchandise", ReturnMerchandise},
		{"SubscriptionRenewal", SubscriptionRenewal},
		{"HiringPipeline", HiringPipeline},
		{"GrantReview", GrantReview},
		{"PatientIntake", PatientIntake},
		{"CourseEnrollment", CourseEnrollment},
	}
}
