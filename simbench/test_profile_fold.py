"""Unit test of the gprof namespace folding on a canned flat profile.

Run from the repository root:  python3 -m unittest simbench/test_profile_fold.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import profile_fold  # noqa: E402

LISTING = """\
Flat profile:

Each sample counts as 0.01 seconds.
  %   cumulative   self              self     total
 time   seconds   seconds    calls   s/call   s/call  name
 30.00      0.30     0.30  6403660     0.00     0.00  cdna::sim::EventQueue::siftDown(unsigned int)
 20.00      0.50     0.20 20697520     0.00     0.00  operator new(unsigned long)
 10.00      0.60     0.10  1143560     0.00     0.00  cdna::sim::InplaceCallback::heapVtable<cdna::net::EthLink::doSend(cdna::net::EthLink::LinkPort&, cdna::net::Packet, long, std::function<void ()>)::{lambda()#2}>()::{lambda(void*)#1}::_FUN(void*)
 10.00      0.70     0.10   325090     0.00     0.00  std::_Function_handler<void (cdna::mem::DmaResult), cdna::core::CdnaNic::receiveFrame(cdna::net::Packet)::{lambda()#1}::operator()()::{lambda(cdna::mem::DmaResult)#1}>::_M_invoke(std::_Any_data const&, cdna::mem::DmaResult&&)
  8.00      0.78     0.08  2511990     0.00     0.00  cdna::mem::DmaEngine::doTransfer(std::vector<cdna::mem::SgEntry, std::allocator<cdna::mem::SgEntry> > const&, unsigned int, unsigned int, bool, std::function<void (cdna::mem::DmaResult)>)
  7.00      0.85     0.07   979930     0.00     0.00  non-virtual thunk to cdna::core::CdnaGuestDriver::canTransmit() const
  5.00      0.90     0.05    27760     0.00     0.00  cdna::os::NetStack::buildPackets(unsigned long, unsigned long, std::vector<unsigned long, std::allocator<unsigned long> > const&, std::vector<cdna::net::Packet, std::allocator<cdna::net::Packet> >*)
  4.00      0.94     0.04                             cdna::net::transport::TcpEndpoint::onAck(cdna::net::Packet const&)
  3.00      0.97     0.03     5970     0.00     0.00  cdna::workload::TrafficApp::pump()
  2.00      0.99     0.02      100     0.00     0.00  void std::__introsort_loop<__gnu_cxx::__normal_iterator<cdna::vmm::Domain**, std::vector<cdna::vmm::Domain*> >, long>(long)
  1.00      1.00     0.01       60     0.00     0.00  simbench::driveCell(simbench::Cell const&, simbench::SetResult&)
  0.00      1.00     0.00        1     0.00     0.00  cdna::cpu::SimCpu::syncIdle()
"""


class ModuleOfTest(unittest.TestCase):
    def test_plain_member(self):
        self.assertEqual(
            profile_fold.module_of("cdna::sim::EventQueue::siftUp(unsigned int)"),
            "sim")

    def test_inplace_callback_thunk_goes_to_sim(self):
        self.assertEqual(
            profile_fold.module_of(
                "cdna::sim::InplaceCallback::inlineVtable<"
                "cdna::cpu::SimCpu::dispatch()::{lambda()#3}>()"
                "::{lambda(void*)#1}::_FUN(void*)"),
            "sim")

    def test_function_handler_goes_to_the_lambda_module(self):
        self.assertEqual(
            profile_fold.module_of(
                "std::_Function_handler<void (cdna::mem::DmaResult), "
                "cdna::core::CdnaNic::receiveFrame(cdna::net::Packet)"
                "::{lambda()#1}>::_M_invoke(std::_Any_data const&)"),
            "core")

    def test_nested_namespace_folds_to_module(self):
        self.assertEqual(
            profile_fold.module_of(
                "cdna::net::workload::WorkloadEngine::fire()"),
            "net")

    def test_outside_the_simulator_is_other(self):
        self.assertEqual(profile_fold.module_of("operator new(unsigned long)"),
                         profile_fold.OTHER)
        self.assertEqual(
            profile_fold.module_of("simbench::driveCell(simbench::Cell const&)"),
            profile_fold.OTHER)


class FoldTest(unittest.TestCase):
    def test_canned_listing_shares(self):
        shares = profile_fold.fold(LISTING)
        expected = {
            "sim": 40.0,   # siftDown + InplaceCallback thunk
            "core": 17.0,  # _Function_handler<..core..> + thunk
            "mem": 8.0,
            "os": 5.0,
            "net": 4.0,    # row without call counts
            "workload": 3.0,
            "vmm": 2.0,    # template argument of a std:: algorithm
            "cpu": 0.0,
            "nic": 0.0,
            profile_fold.OTHER: 21.0,
        }
        self.assertEqual(set(shares), set(expected))
        for name, pct in expected.items():
            self.assertAlmostEqual(shares[name], pct, places=6, msg=name)
        self.assertAlmostEqual(sum(shares.values()), 100.0, places=6)

    def test_empty_listing_is_an_error(self):
        with self.assertRaises(ValueError):
            profile_fold.fold("Flat profile:\n\nno time accumulated\n")


if __name__ == "__main__":
    unittest.main()
